"""MemCA-BE: prober plus commander (the feedback controller of Fig 8).

The backend never sees victim-side telemetry.  It learns the attack's
effect the way any outside client could — by probing the target web
application and computing percentile response time — and it keeps the
attack stealthy using only attacker-side knowledge (the FE's burst
execution times).  A scalar Kalman filter smooths the noisy probe
percentiles before the commander steps the parameters.

Escalation ladder (gentlest knob first, mirroring Section IV-C):

1. raise burst *intensity* R toward the host's peak,
2. lengthen bursts L up to the stealth allowance,
3. shorten the interval I (more frequent bursts), floored so the
   attack never degenerates into a detectable flood.

When the filtered percentile overshoots the target by a comfortable
margin the commander backs off in the reverse order — quieter attacks
are stealthier attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

import numpy as np

from ..ntier.client import OpenLoopProber
from ..sim.core import Simulator
from .control import ScalarKalmanFilter
from .frontend import MemCAFrontend

__all__ = ["ControlGoals", "CommanderEpoch", "Commander", "MemCABackend"]


@dataclass(frozen=True)
class ControlGoals:
    """The attack's twin objectives.

    ``rt_target`` — percentile response time to exceed (damage goal,
    paper: 95th percentile > 1 s).
    ``quantile`` — which percentile, in [0, 100].
    ``stealth_limit`` — ceiling on the FE-estimated millibottleneck
    length in seconds (stealth goal, paper: sub-second).
    ``overshoot`` — back off once filtered RT exceeds
    ``rt_target * overshoot``.
    """

    rt_target: float = 1.0
    quantile: float = 95.0
    stealth_limit: float = 1.0
    overshoot: float = 2.0

    def __post_init__(self) -> None:
        if self.rt_target <= 0:
            raise ValueError(f"rt_target must be positive: {self.rt_target}")
        if not 0 < self.quantile < 100:
            raise ValueError(f"quantile outside (0,100): {self.quantile}")
        if self.stealth_limit <= 0:
            raise ValueError("stealth_limit must be positive")
        if self.overshoot <= 1.0:
            raise ValueError(f"overshoot must exceed 1: {self.overshoot}")


@dataclass(frozen=True)
class CommanderEpoch:
    """One control epoch's observation and resulting actuation."""

    time: float
    samples: int
    measured_rt: Optional[float]
    filtered_rt: Optional[float]
    intensity: float
    length: float
    interval: float
    action: str


class Commander:
    """The feedback loop: probe percentile in, parameter steps out."""

    #: Multiplicative steps of the escalation ladder.
    INTENSITY_STEP = 0.2
    LENGTH_STEP = 1.25
    INTERVAL_STEP = 0.85

    def __init__(
        self,
        sim: Simulator,
        frontend: MemCAFrontend,
        prober: OpenLoopProber,
        goals: ControlGoals = ControlGoals(),
        epoch: float = 10.0,
        min_samples: int = 5,
        min_interval: float = 1.0,
        kalman: Optional[ScalarKalmanFilter] = None,
    ):
        if epoch <= 0:
            raise ValueError(f"epoch must be positive: {epoch}")
        self.sim = sim
        self.frontend = frontend
        self.prober = prober
        self.goals = goals
        self.epoch = epoch
        self.min_samples = min_samples
        self.min_interval = min_interval
        self.kalman = kalman or ScalarKalmanFilter(
            initial=0.0, initial_var=4.0, process_var=0.02,
            measurement_var=0.15,
        )
        self.history: List[CommanderEpoch] = []
        self._proc = None

    # Bursts must end well before the stealth limit: the fade-off drain
    # extends the millibottleneck beyond the FE-visible execution time.
    _LENGTH_STEALTH_FRACTION = 0.6

    @property
    def max_length(self) -> float:
        return self.goals.stealth_limit * self._LENGTH_STEALTH_FRACTION

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.process(self._run())

    def _run(self) -> Generator:
        last_epoch_start = self.sim.now
        while True:
            yield self.epoch
            samples = self.prober.samples_since(last_epoch_start)
            last_epoch_start = self.sim.now
            report = self.frontend.report()
            if len(samples) < self.min_samples:
                self.history.append(
                    CommanderEpoch(
                        time=self.sim.now,
                        samples=len(samples),
                        measured_rt=None,
                        filtered_rt=None,
                        intensity=report.intensity,
                        length=report.length,
                        interval=report.interval,
                        action="hold(insufficient-samples)",
                    )
                )
                continue
            measured = float(np.percentile(samples, self.goals.quantile))
            filtered = self.kalman.update(measured)
            action = self._steer(filtered)
            report = self.frontend.report()
            self.history.append(
                CommanderEpoch(
                    time=self.sim.now,
                    samples=len(samples),
                    measured_rt=measured,
                    filtered_rt=filtered,
                    intensity=report.intensity,
                    length=report.length,
                    interval=report.interval,
                    action=action,
                )
            )

    def _steer(self, filtered_rt: float) -> str:
        if filtered_rt < self.goals.rt_target:
            return self._escalate()
        if filtered_rt > self.goals.rt_target * self.goals.overshoot:
            return self._deescalate()
        return "hold(on-target)"

    def _escalate(self) -> str:
        attacker = self.frontend.attackers[0]
        if attacker.intensity < 1.0:
            new = min(1.0, attacker.intensity + self.INTENSITY_STEP)
            self.frontend.set_parameters(intensity=new)
            return f"escalate(intensity->{new:.2f})"
        if attacker.length < self.max_length:
            new = min(self.max_length, attacker.length * self.LENGTH_STEP)
            if new < attacker.interval:
                self.frontend.set_parameters(length=new)
                return f"escalate(length->{new * 1e3:.0f}ms)"
        floor = max(self.min_interval, attacker.length * 1.5)
        new = max(floor, attacker.interval * self.INTERVAL_STEP)
        if new < attacker.interval:
            self.frontend.set_parameters(interval=new)
            return f"escalate(interval->{new:.2f}s)"
        return "hold(at-limits)"

    def _deescalate(self) -> str:
        attacker = self.frontend.attackers[0]
        new = attacker.interval / self.INTERVAL_STEP
        self.frontend.set_parameters(interval=new)
        return f"deescalate(interval->{new:.2f}s)"

    @property
    def achieved_goal(self) -> bool:
        """Whether the latest filtered estimate meets the damage goal."""
        for epoch in reversed(self.history):
            if epoch.filtered_rt is not None:
                return epoch.filtered_rt >= self.goals.rt_target
        return False


class MemCABackend:
    """Prober + commander, started as one unit."""

    def __init__(self, prober: OpenLoopProber, commander: Commander):
        self.prober = prober
        self.commander = commander

    def start(self) -> None:
        self.prober.start()
        self.commander.start()

    @property
    def history(self) -> List[CommanderEpoch]:
        return self.commander.history
