"""Host-level LLC-miss profiling (the paper's OProfile substitute).

Reads a VM's :class:`~repro.hardware.llc.LLCMissCounter` at a fixed
interval and records misses-per-interval, with multiplicative sampling
noise (hardware performance counters are noisy, and only a handful of
counter slots exist — our model host exposes 4, like the paper's Xeon
E5-2603).
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..hardware.llc import LLCMissCounter
from ..sim.core import Simulator
from .metrics import TimeSeries

__all__ = ["LLCMissProfiler"]


class LLCMissProfiler:
    """Periodic LLC-miss-delta sampler for one VM."""

    def __init__(
        self,
        sim: Simulator,
        counter: LLCMissCounter,
        interval: float = 0.05,
        noise: float = 0.08,
        rng: Optional[np.random.Generator] = None,
        name: Optional[str] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        if noise < 0:
            raise ValueError(f"noise must be >= 0: {noise}")
        self.sim = sim
        self.counter = counter
        self.interval = interval
        self.noise = noise
        self.rng = rng if rng is not None else np.random.default_rng()
        self.series = TimeSeries(name or f"{counter.vm_name}-llc-misses")
        self._proc = None

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.process(self._run())

    def _run(self) -> Generator:
        value_before = self.counter.value
        while True:
            yield self.interval
            value_now = self.counter.value
            delta = value_now - value_before
            if self.noise > 0:
                delta *= float(self.rng.normal(1.0, self.noise))
            self.series.append(self.sim.now, max(0.0, delta))
            value_before = value_now
