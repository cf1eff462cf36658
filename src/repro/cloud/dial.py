"""DIAL-style interference-aware load balancing (cited defense [24]).

A *user-centric* defense: the tenant cannot see the host or the
co-located adversary, but it can see its own per-replica latencies.
:class:`DialBalancer` periodically re-weights a
:class:`~repro.ntier.ReplicatedTier` inversely to each replica's
latency EWMA — load drains away from whichever replica is being
interfered with, without ever identifying (or needing to identify) the
cause.

A floor keeps every replica probed with a trickle of traffic so the
balancer notices recovery (otherwise a replica with weight zero would
stay suspect forever).
"""

from __future__ import annotations

from typing import Generator, List, Tuple

import numpy as np

from ..ntier.replicated import ReplicatedTier
from ..sim.core import Simulator

__all__ = ["DialBalancer"]


class DialBalancer:
    """Latency-feedback weight controller for a replicated tier."""

    #: Per-epoch tail statistic (interference hides in the tail; a mean
    #: washes out a 25%-duty burst).
    TAIL_PERCENTILE = 90.0
    #: With no fresh samples, an estimate decays toward recovery so a
    #: floored replica is eventually rehabilitated by its probe trickle.
    DECAY = 0.7

    def __init__(
        self,
        sim: Simulator,
        tier: ReplicatedTier,
        epoch: float = 1.0,
        sensitivity: float = 2.0,
        min_weight: float = 0.05,
    ):
        if epoch <= 0:
            raise ValueError(f"epoch must be positive: {epoch}")
        if sensitivity <= 0:
            raise ValueError(f"sensitivity must be positive: {sensitivity}")
        n = len(tier.replicas)
        if not 0.0 < min_weight < 1.0 / n:
            raise ValueError(
                f"min_weight must be in (0, 1/{n}): {min_weight}"
            )
        self.sim = sim
        self.tier = tier
        self.epoch = epoch
        self.sensitivity = sensitivity
        self.min_weight = min_weight
        #: Per-replica tail-latency estimates (seconds).
        self.estimates: List[float] = [0.0] * n
        #: (time, weights) after each adjustment.
        self.history: List[Tuple[float, np.ndarray]] = []
        self._proc = None

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.process(self._run())

    def _run(self) -> Generator:
        while True:
            yield self.epoch
            self._rebalance()

    def _rebalance(self) -> None:
        windows = self.tier.drain_windows()
        for index, window in enumerate(windows):
            if window:
                observed = float(
                    np.percentile(window, self.TAIL_PERCENTILE)
                )
                # Rise fast (take the worse of old/new), recover slowly.
                self.estimates[index] = max(
                    observed, self.estimates[index] * self.DECAY
                )
            else:
                self.estimates[index] *= self.DECAY
        if any(value <= 0 for value in self.estimates):
            return  # not enough observations yet
        inverse = np.array(
            [1.0 / max(value, 1e-6) for value in self.estimates]
        ) ** self.sensitivity
        weights = inverse / inverse.sum()
        # Exact floor: pin under-floor entries at min_weight and
        # redistribute the remaining mass over the others.
        floored = weights < self.min_weight
        if floored.any() and not floored.all():
            weights[floored] = self.min_weight
            rest = ~floored
            excess = 1.0 - self.min_weight * floored.sum()
            weights[rest] = (
                weights[rest] / weights[rest].sum() * excess
            )
        self.tier.set_weights(weights)
        self.history.append((self.sim.now, weights))
