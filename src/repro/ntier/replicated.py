"""A replicated tier behind a weighted dispatcher.

Production bottleneck tiers are usually replicated (read replicas,
sharded caches); the cited DIAL defense exploits exactly that: when one
replica suffers interference, shift load toward the healthy ones.
:class:`ReplicatedTier` is chain-compatible with :class:`Tier` (an
upstream tier calls ``admit`` then ``serve``), dispatches each request
to a replica by the current weights, and records per-replica latency
EWMAs that a balancer (see :mod:`repro.cloud.dial`) can steer on.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

import numpy as np

from ..sim.core import Simulator
from .request import Request
from .tier import Tier, TierOverflowError

__all__ = ["ReplicatedTier"]


class ReplicatedTier:
    """N replicas of one tier behind weighted random dispatch."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        replicas: List[Tier],
        rng: Optional[np.random.Generator] = None,
        ewma_alpha: float = 0.2,
    ):
        if not replicas:
            raise ValueError("need at least one replica")
        # Demands, spans and drop attribution are keyed by tier name,
        # so a replica answers to the name of the tier it replicates.
        for replica in replicas:
            if replica.name != name:
                raise ValueError(
                    f"replica {replica.name!r} of tier {name!r} must "
                    f"carry the tier's name"
                )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha outside (0,1]: {ewma_alpha}")
        self.sim = sim
        self.name = name
        self.replicas = list(replicas)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.ewma_alpha = ewma_alpha
        self._weights = np.full(len(replicas), 1.0 / len(replicas))
        #: Per-replica latency EWMAs (seconds); None until first sample.
        self.latency_ewma: List[Optional[float]] = [None] * len(replicas)
        #: Per-replica raw latencies since the last drain (for
        #: tail-sensitive balancers: interference lives in the tail,
        #: which a mean EWMA washes out at low burst duty cycles).
        self.latency_window: List[List[float]] = [
            [] for _ in replicas
        ]
        self.dispatched = [0] * len(replicas)
        self.downstream = None  # chain-compat; replicas hold real links

    # -- weights ---------------------------------------------------------

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    def set_weights(self, weights) -> None:
        array = np.asarray(weights, dtype=float)
        if array.shape != (len(self.replicas),):
            raise ValueError(
                f"need {len(self.replicas)} weights, got {array.shape}"
            )
        if (array < 0).any() or array.sum() <= 0:
            raise ValueError(f"invalid weights: {array}")
        self._weights = array / array.sum()

    # -- chain-compatible surface -----------------------------------------

    @property
    def arrivals(self) -> int:
        return sum(r.arrivals for r in self.replicas)

    @property
    def completions(self) -> int:
        return sum(r.completions for r in self.replicas)

    @property
    def drops(self) -> int:
        return sum(r.drops for r in self.replicas)

    @property
    def occupancy(self) -> int:
        return sum(r.occupancy for r in self.replicas)

    @property
    def queue_length(self) -> int:
        return sum(r.queue_length for r in self.replicas)

    @property
    def concurrency(self) -> int:
        return sum(r.concurrency for r in self.replicas)

    @property
    def pool(self):
        """Expose the first replica's pool for chain-compat checks."""
        return self.replicas[0].pool

    def admit(self, request: Request) -> Optional[Tuple[int, float, Any]]:
        """Pick a replica by the current weights and admit there.

        Returns the token for :meth:`serve`, or ``None`` when the
        replica dropped the request; a drop is still observed as a
        zero-length latency sample.
        """
        index = int(self.rng.choice(len(self.replicas), p=self._weights))
        self.dispatched[index] += 1
        inner = self.replicas[index].admit(request)
        if inner is None:
            self._observe(index, 0.0)
            return None
        return index, self.sim.now, inner

    def handle(self, request: Request) -> Generator:
        """Dispatch to one replica and record its observed latency."""
        token = self.admit(request)
        if token is None:
            raise TierOverflowError(self.name)
        yield from self.serve(request, token)

    def serve(
        self, request: Request, token: Tuple[int, float, Any]
    ) -> Generator:
        """Run an admitted visit on its replica, then record its latency."""
        index, started, inner = token
        try:
            yield from self.replicas[index].serve(request, inner)
        finally:
            self._observe(index, self.sim.now - started)

    def _observe(self, index: int, elapsed: float) -> None:
        self.latency_window[index].append(elapsed)
        previous = self.latency_ewma[index]
        if previous is None:
            self.latency_ewma[index] = elapsed
        else:
            self.latency_ewma[index] = (
                (1.0 - self.ewma_alpha) * previous
                + self.ewma_alpha * elapsed
            )

    def drain_windows(self) -> List[List[float]]:
        """Return and reset the per-replica latency windows."""
        windows = self.latency_window
        self.latency_window = [[] for _ in self.replicas]
        return windows

    def serve_local(
        self, request: Request, token: Tuple[int, float, Any]
    ) -> Generator:
        """Tandem-mode compatibility: a local-only visit on the replica."""
        index, _started, inner = token
        yield from self.replicas[index].serve_local(request, inner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicatedTier({self.name!r}, x{len(self.replicas)}, "
            f"weights={np.round(self._weights, 2)})"
        )
