"""MemCA: the assembled attack (Eq. 1, ``Effect = A(R, L, I)``).

:class:`MemCAAttack` wires everything together against a
:class:`~repro.cloud.platform.CloudDeployment`: co-locates an adversary
VM with the chosen tier, runs the ON-OFF frontend, optionally closes
the loop with a backend (prober + Kalman commander), and measures the
outcome as an :class:`AttackEffect` — the paper's damage metrics
(percentile response times, drops) side by side with its stealthiness
metrics (average utilization, millibottleneck lengths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..cloud.platform import CloudDeployment
from ..monitoring.sampler import UtilizationMonitor
from ..ntier.client import OpenLoopProber
from ..ntier.request import Request
from ..sim.core import Simulator
from .backend import Commander, ControlGoals, MemCABackend
from .burst import OnOffAttacker
from .frontend import MemCAFrontend
from .programs import AttackProgram, MemoryLockAttack

__all__ = ["AttackEffect", "MemCAAttack"]


@dataclass(frozen=True)
class AttackEffect:
    """Measured attack impact over an observation window."""

    window: Tuple[float, float]
    requests: int
    #: Client-perceived response-time percentiles, e.g. {95: 1.02}.
    percentiles: Dict[int, float]
    fraction_above_rto: float
    #: Front-tier TCP drops accumulated since the start of the run
    #: (the tier does not timestamp individual drops).
    drops: int
    failed: int
    retransmitted: int
    bursts: int
    mean_burst_length: Optional[float]
    #: Mean bottleneck CPU utilization over the window (coarse view).
    avg_bottleneck_utilization: Optional[float]
    #: Observed saturation episodes from 50 ms monitoring (fine view).
    millibottlenecks: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def mean_millibottleneck(self) -> Optional[float]:
        if not self.millibottlenecks:
            return None
        return float(
            np.mean([end - start for start, end in self.millibottlenecks])
        )

    def summary(self) -> str:
        p = {k: f"{v * 1e3:.0f}ms" for k, v in self.percentiles.items()}
        avg = (
            f"{self.avg_bottleneck_utilization:.0%}"
            if self.avg_bottleneck_utilization is not None
            else "n/a"
        )
        mmb = (
            f"{self.mean_millibottleneck * 1e3:.0f}ms"
            if self.mean_millibottleneck is not None
            else "n/a"
        )
        return (
            f"requests={self.requests} percentiles={p} "
            f">RTO={self.fraction_above_rto:.1%} drops={self.drops} "
            f"bursts={self.bursts} avg_util={avg} millibottleneck={mmb}"
        )


class MemCAAttack:
    """Orchestrates a MemCA campaign against a deployed application."""

    def __init__(
        self,
        sim: Simulator,
        deployment: CloudDeployment,
        program: Optional[AttackProgram] = None,
        length: float = 0.5,
        interval: float = 2.0,
        intensity: float = 1.0,
        target_tier: Optional[str] = None,
        adversary_name: str = "adversary",
        adversaries: int = 1,
        monitor_interval: float = 0.05,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if adversaries < 1:
            raise ValueError(f"adversaries must be >= 1: {adversaries}")
        self.sim = sim
        self.deployment = deployment
        self.program = program or MemoryLockAttack()
        self.target_tier = target_tier or deployment.app.back.name
        self.adversary_name = adversary_name
        self.adversaries = adversaries
        self.length = length
        self.interval = interval
        self.intensity = intensity
        self.jitter = jitter
        self.rng = rng
        self.monitor_interval = monitor_interval
        self.frontend: Optional[MemCAFrontend] = None
        self.backend: Optional[MemCABackend] = None
        self.attacker: Optional[OnOffAttacker] = None
        self.victim_monitor: Optional[UtilizationMonitor] = None
        self.launched_at: Optional[float] = None

    def launch(self) -> MemCAFrontend:
        """Co-locate the adversary and start the burst engine."""
        if self.frontend is not None:
            raise RuntimeError("attack already launched")
        if self.adversaries == 1:
            names = [self.adversary_name]
        else:
            names = [
                f"{self.adversary_name}-{i + 1}"
                for i in range(self.adversaries)
            ]
        memory = None
        for name in names:
            memory = self.deployment.co_locate_adversary(
                self.target_tier, adversary_name=name
            )
        self.attacker = OnOffAttacker(
            self.sim,
            memory,
            names,
            self.program,
            length=self.length,
            interval=self.interval,
            intensity=self.intensity,
            jitter=self.jitter,
            rng=self.rng,
        )
        self.frontend = MemCAFrontend(self.sim, [self.attacker])
        victim_cpu = self.deployment.vm(self.target_tier).cpu
        self.victim_monitor = UtilizationMonitor(
            self.sim, victim_cpu, interval=self.monitor_interval
        )
        self.victim_monitor.start()
        self.frontend.start()
        self.launched_at = self.sim.now
        return self.frontend

    def enable_feedback(
        self,
        request_factory: Callable[[int], Request],
        goals: ControlGoals = ControlGoals(),
        probe_rate: float = 2.0,
        epoch: float = 10.0,
        rng: Optional[np.random.Generator] = None,
    ) -> MemCABackend:
        """Attach MemCA-BE: probe the app, steer the parameters."""
        if self.frontend is None:
            raise RuntimeError("launch() the attack before enabling feedback")
        prober = OpenLoopProber(
            self.sim,
            self.deployment.app,
            request_factory,
            rate=probe_rate,
            rng=rng,
        )
        commander = Commander(
            self.sim, self.frontend, prober, goals=goals, epoch=epoch
        )
        self.backend = MemCABackend(prober, commander)
        self.backend.start()
        return self.backend

    def stop(self) -> None:
        if self.frontend is not None:
            self.frontend.stop()

    # -- Effect = A(R, L, I) ------------------------------------------------

    def effect(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
        percentiles: Tuple[int, ...] = (50, 90, 95, 98, 99),
        rto: float = 1.0,
        saturation_threshold: float = 0.95,
    ) -> AttackEffect:
        """Measure the attack outcome over [since, until)."""
        if self.launched_at is None:
            raise RuntimeError("attack not launched")
        t0 = self.launched_at if since is None else since
        t1 = self.sim.now if until is None else until
        app = self.deployment.app
        rows = app.completed.rows_between(t0, t1)
        rts = app.completed.column("response_time")[rows]
        attempts = app.completed.column("attempts")[rows]
        if len(rts):
            pct = {
                p: float(np.percentile(rts, p)) for p in percentiles
            }
            above = float(np.mean(rts > rto))
        else:
            pct = {p: float("nan") for p in percentiles}
            above = 0.0
        failed = app.failed.column("t_done")[app.failed.rows_between(t0, t1)]
        assert self.attacker is not None
        bursts = self.attacker.bursts_since(t0)
        util_series = (
            self.victim_monitor.series.between(t0, t1)
            if self.victim_monitor
            else None
        )
        avg_util = (
            util_series.mean() if util_series and len(util_series) else None
        )
        millibottlenecks = (
            util_series.intervals_above(saturation_threshold)
            if util_series and len(util_series)
            else []
        )
        return AttackEffect(
            window=(t0, t1),
            requests=len(rts),
            percentiles=pct,
            fraction_above_rto=above,
            drops=app.front.drops,
            failed=len(failed),
            retransmitted=int(np.count_nonzero(attempts > 1)),
            bursts=len(bursts),
            mean_burst_length=(
                float(np.mean([b.length for b in bursts])) if bursts else None
            ),
            avg_bottleneck_utilization=avg_util,
            millibottlenecks=millibottlenecks,
        )
