"""Periodic samplers: the simulated monitoring agents.

Each sampler is a simulation process that wakes at a fixed interval and
appends one sample to a :class:`TimeSeries`.  Granularity is the whole
game (Section V-B): a 1-minute CloudWatch-style monitor cannot see a
500 ms burst, a 1-second monitor sees mild fluctuation, and only a 50 ms
monitor reveals the transient saturations.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from ..sim.core import Simulator
from ..sim.psserver import ProcessorSharingServer
from .metrics import TimeSeries

__all__ = ["PeriodicSampler", "UtilizationMonitor", "GRANULARITIES"]

#: The three monitoring granularities compared in Fig 10 (seconds).
GRANULARITIES = {
    "cloudwatch_1min": 60.0,
    "fine_1s": 1.0,
    "ultrafine_50ms": 0.05,
}


class PeriodicSampler:
    """Samples arbitrary probe callables at a fixed interval."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        probes: Dict[str, Callable[[], float]],
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.sim = sim
        self.interval = interval
        self.probes = dict(probes)
        self.series: Dict[str, TimeSeries] = {
            name: TimeSeries(name) for name in self.probes
        }
        self._proc = None

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.process(self._run())

    def _run(self) -> Generator:
        while True:
            yield self.interval
            now = self.sim.now
            for name, probe in self.probes.items():
                self.series[name].append(now, float(probe()))


class UtilizationMonitor:
    """Per-interval CPU utilization of one VM's PS server.

    Utilization is busy-core-seconds over the interval divided by
    ``cores * interval``.  Memory-stalled cycles count as busy (see
    :mod:`repro.sim.psserver`), so the victim's monitor shows transient
    *CPU* saturation even though memory is the attacked resource.
    """

    def __init__(
        self,
        sim: Simulator,
        cpu: ProcessorSharingServer,
        interval: float = 0.05,
        name: Optional[str] = None,
        overhead_work: float = 0.0,
    ):
        """``overhead_work`` — CPU-seconds the monitoring agent burns
        on the monitored CPU per sample.  Metric collection is not
        free (the paper's Section I cites the < 1% datacenter overhead
        budget), and the cost lands on the measured CPU itself, so
        aggressive granularity inflates the very signal it measures.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        if overhead_work < 0:
            raise ValueError(
                f"overhead_work must be >= 0: {overhead_work}"
            )
        self.sim = sim
        self.cpu = cpu
        self.interval = interval
        self.overhead_work = overhead_work
        self.series = TimeSeries(name or f"{cpu.name}-util")
        self._proc = None

    @property
    def nominal_overhead(self) -> float:
        """The agent's steady CPU share: work / (interval * cores)."""
        return self.overhead_work / (self.interval * self.cpu.cores)

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.process(self._run())

    def _run(self) -> Generator:
        busy_before = self.cpu.busy_core_seconds
        while True:
            yield self.interval
            if self.overhead_work > 0:
                self.cpu.execute(self.overhead_work)
            busy_now = self.cpu.busy_core_seconds
            util = (busy_now - busy_before) / (self.interval * self.cpu.cores)
            self.series.append(self.sim.now, min(1.0, util))
            busy_before = busy_now
