"""TCP retransmission timing (RFC 6298 subset).

The paper's client-side damage mechanism: when the front-most tier's
accept queue overflows, the SYN (or request segment) is dropped and the
client retries after the retransmission timeout.  RFC 6298 sets the
minimum RTO at 1 second with exponential backoff, which is why a single
dropped request costs the client *at least* one extra second — the jump
from sub-100 ms normal latency to the multi-second tail of Fig 2/7c/9d.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetransmissionPolicy", "DEFAULT_TCP"]


@dataclass(frozen=True)
class RetransmissionPolicy:
    """Retransmission schedule parameters.

    ``min_rto`` — initial retransmission timeout (RFC 6298 floor: 1 s).
    ``backoff`` — multiplier applied after each failed attempt.
    ``max_rto`` — ceiling for the timeout (RFC 6298 suggests >= 60 s).
    ``max_retries`` — retransmissions before the client gives up.

    ``schedule`` (not a field) is the tuple of backoffs, one per
    retransmission: 1, 2, 4, ... capped at ``max_rto``.  The sleeping
    paths index it by drop count, and attribution sums it, so the two
    read the same floats.
    """

    min_rto: float = 1.0
    backoff: float = 2.0
    max_rto: float = 64.0
    max_retries: int = 6

    def __post_init__(self) -> None:
        if self.min_rto <= 0:
            raise ValueError(f"min_rto must be positive: {self.min_rto}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1: {self.backoff}")
        if self.max_rto < self.min_rto:
            raise ValueError("max_rto must be >= min_rto")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        schedule = []
        rto = self.min_rto
        for _ in range(self.max_retries):
            schedule.append(min(rto, self.max_rto))
            rto *= self.backoff
        # Not a dataclass field: equality, hashing and the sweep cache
        # key see only the four parameters it is built from.
        object.__setattr__(self, "schedule", tuple(schedule))

    def rto_for_drop(self, drop_index: int) -> float:
        """The backoff slept after the ``drop_index``-th drop (0-based).

        Lets offline analysis reconstruct per-attempt send times from a
        drop count alone (e.g. attributing how much of a tail request's
        latency was pure retransmission wait).
        """
        if drop_index < 0:
            raise ValueError(f"drop_index must be >= 0: {drop_index}")
        if drop_index >= self.max_retries:
            raise ValueError(
                f"drop {drop_index} exceeds max_retries={self.max_retries}"
            )
        return self.schedule[drop_index]


#: RFC 6298 defaults used throughout the paper's analysis.
DEFAULT_TCP = RetransmissionPolicy()
