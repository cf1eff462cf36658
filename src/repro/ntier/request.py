"""Request records flowing through the simulated n-tier system.

A :class:`Request` carries its per-tier service demands (sampled by the
workload generator) and accumulates the measurements the paper reports:
per-tier response-time spans (Fig 2), client-perceived response time
including TCP retransmissions (Fig 9d), and drop/retry accounting.

Every run keeps every finished request until it ends, so the record is
compact (DESIGN.md "The request record"): ``__slots__`` instead of an
instance dict, and the per-visit spans in one flat list
``[tier, enter, leave, tier, enter, leave, ...]`` in record order
rather than a dict of per-tier lists of tuples.  :attr:`Request.
tier_spans` rebuilds the dict-of-lists view on access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.columnar import ColumnarTrace

__all__ = ["Request"]


class Request:
    """One client request and everything that happened to it.

    Attributes:
        rid, page: identity (closed-loop ``rid``s are per-user counters).
        demands: per-tier CPU demand in seconds at nominal speed, e.g.
            ``{"apache": 0.0003, "tomcat": 0.0008, "mysql": 0.0022}``.
        t_first_attempt: simulation time of the client's *first*
            transmission attempt.
        t_done: completion time (response received), if completed.
        attempts: number of transmission attempts (1 = no
            retransmission).
        failed: true once the client has given up after exhausting
            retries.
        attempt_times: send time of every transmission attempt (Fig 9d
            offline replay).
        drop_tiers: tier that dropped each failed attempt, in drop order.
        weight: population scale weight: how many real users this
            request's sender stands for (1.0 in full-DES runs;
            ``users / sampled`` in hybrid fluid/DES runs, where
            throughput-style aggregates must weight each sampled request
            accordingly).
        trace: span tree, present only when a recording tracer adopted
            this request (``repro.obs``); ``None`` is the disabled fast
            path.  Not part of equality or ``repr``.
    """

    __slots__ = (
        "rid",
        "page",
        "demands",
        "t_first_attempt",
        "t_done",
        "attempts",
        "failed",
        "_spans",
        "attempt_times",
        "drop_tiers",
        "weight",
        "trace",
    )

    def __init__(
        self,
        rid: int,
        page: str,
        demands: Dict[str, float],
        t_first_attempt: float = 0.0,
        t_done: Optional[float] = None,
        attempts: int = 0,
        failed: bool = False,
        tier_spans: Optional[Dict[str, List[Tuple[float, float]]]] = None,
        attempt_times: Optional[List[float]] = None,
        drop_tiers: Optional[List[str]] = None,
        weight: float = 1.0,
        trace: Optional["ColumnarTrace"] = None,
    ):
        self.rid = rid
        self.page = page
        self.demands = demands
        self.t_first_attempt = t_first_attempt
        self.t_done = t_done
        self.attempts = attempts
        self.failed = failed
        #: Flat per-visit spans: ``tier, enter, leave`` per visit.
        self._spans: List[Any] = []
        if tier_spans:
            for tier, spans in tier_spans.items():
                for enter, leave in spans:
                    self.record_span(tier, enter, leave)
        self.attempt_times = [] if attempt_times is None else attempt_times
        self.drop_tiers = [] if drop_tiers is None else drop_tiers
        self.weight = weight
        self.trace = trace

    def demand(self, tier: str) -> float:
        """CPU demand at ``tier`` (0.0 if the page skips the tier)."""
        return self.demands.get(tier, 0.0)

    def visits(self, tier: str) -> bool:
        """Whether this request's page touches ``tier`` at all."""
        return self.demands.get(tier, 0.0) > 0.0

    def record_span(self, tier: str, enter: float, leave: float) -> None:
        """Record one tier visit's (enter, leave) span."""
        self._spans += (tier, enter, leave)

    @property
    def tier_spans(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per-tier (enter, leave) spans, one tuple per visit.

        A fresh dict built on each access (mutating it does not touch
        the request): tiers in first-visit order, each tier's spans in
        record order.
        """
        out: Dict[str, List[Tuple[float, float]]] = {}
        flat = iter(self._spans)
        for tier, enter, leave in zip(flat, flat, flat):
            if tier in out:
                out[tier].append((enter, leave))
            else:
                out[tier] = [(enter, leave)]
        return out

    def tier_response_time(self, tier: str) -> Optional[float]:
        """Time spent in ``tier`` (queueing + service + downstream).

        ``None`` when the request never left ``tier``.  Sums the tier's
        ``leave - enter`` with :func:`sum` in record order, so the float
        is the same as summing the per-tier span list.  A single visit,
        the common case, skips the generator: the :func:`sum` of one
        non-negative float is that float.
        """
        spans = self._spans
        tiers = spans[::3]
        visits = tiers.count(tier)
        if visits == 1:
            i = 3 * tiers.index(tier)
            return spans[i + 2] - spans[i + 1]
        if visits == 0:
            return None
        return sum(
            spans[i + 2] - spans[i + 1]
            for i in range(0, len(spans), 3)
            if spans[i] == tier
        )

    @property
    def completed(self) -> bool:
        return self.t_done is not None and not self.failed

    @property
    def response_time(self) -> Optional[float]:
        """Client-perceived response time, retransmissions included."""
        if self.t_done is None:
            return None
        return self.t_done - self.t_first_attempt

    @property
    def was_retransmitted(self) -> bool:
        return self.attempts > 1

    @property
    def drops(self) -> int:
        """Number of dropped transmission attempts."""
        return len(self.drop_tiers)

    def _key(self) -> Tuple:
        return (
            self.rid,
            self.page,
            self.demands,
            self.t_first_attempt,
            self.t_done,
            self.attempts,
            self.failed,
            self._spans,
            self.attempt_times,
            self.drop_tiers,
            self.weight,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Request(rid={self.rid!r}, page={self.page!r}, "
            f"demands={self.demands!r}, "
            f"t_first_attempt={self.t_first_attempt!r}, "
            f"t_done={self.t_done!r}, attempts={self.attempts!r}, "
            f"failed={self.failed!r}, tier_spans={self.tier_spans!r}, "
            f"attempt_times={self.attempt_times!r}, "
            f"drop_tiers={self.drop_tiers!r}, weight={self.weight!r})"
        )
