"""Section V-A with the control framework: MemCA-BE drives the attack.

Starts the attack deliberately too weak to satisfy Condition 2 (a lock
duty so low the degraded capacity still exceeds the arrival rate) and
lets the commander escalate — intensity first, then burst length, then
interval — until the Kalman-filtered 95th-percentile probe response
time crosses the 1 s damage goal, all without any victim-side
knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from ..analysis.report import format_table
from ..core.attack import AttackEffect
from ..core.backend import CommanderEpoch, ControlGoals
from ..sim.rng import RandomStreams
from .configs import PRIVATE_CLOUD, AttackSpec, RubbosScenario
from .runner import RubbosRun, run_rubbos

__all__ = ["ControllerResult", "run_controller"]


@dataclass
class ControllerResult:
    """Commander trajectory plus the final measured effect."""

    scenario: RubbosScenario
    goals: ControlGoals
    history: List[CommanderEpoch]
    effect: AttackEffect
    run: RubbosRun

    @property
    def converged(self) -> bool:
        """Filtered percentile RT reached the damage goal."""
        return any(
            e.filtered_rt is not None and e.filtered_rt >= self.goals.rt_target
            for e in self.history
        )

    def render(self) -> str:
        rows = []
        for e in self.history:
            rows.append(
                [
                    f"{e.time:.0f}",
                    e.samples,
                    "-" if e.measured_rt is None else f"{e.measured_rt:.2f}",
                    "-" if e.filtered_rt is None else f"{e.filtered_rt:.2f}",
                    f"{e.intensity:.2f}",
                    f"{e.length * 1e3:.0f}ms",
                    f"{e.interval:.2f}s",
                    e.action,
                ]
            )
        table = format_table(
            ["t", "probes", f"p{self.goals.quantile:g} meas",
             "filtered", "intensity", "L", "I", "action"],
            rows,
            title="MemCA-BE commander trajectory",
        )
        status = (
            f"goal (p{self.goals.quantile:g} >= {self.goals.rt_target}s) "
            + ("REACHED" if self.converged else "not reached")
        )
        return f"{table}\n{status}\nfinal effect: {self.effect.summary()}"


def run_controller(
    scenario: Optional[RubbosScenario] = None,
    goals: ControlGoals = ControlGoals(),
) -> ControllerResult:
    """Run the closed-loop attack from a deliberately weak start."""
    if scenario is None:
        scenario = replace(
            PRIVATE_CLOUD,
            name="private-cloud/controlled",
            duration=150.0,
            attack=AttackSpec(
                program="lock",
                length=0.25,
                interval=3.0,
                intensity=0.3,
                jitter=0.1,
            ),
        )

    def add_feedback(run: RubbosRun) -> None:
        assert run.attack is not None
        run.attack.enable_feedback(
            run.workload.make_request,
            goals=goals,
            rng=RandomStreams(scenario.seed).get("prober"),
        )

    run = run_rubbos(scenario, attach=add_feedback)
    # Measure the effect over the final third, after convergence.
    t0 = scenario.duration * 2 / 3
    effect = run.attack.effect(since=t0)
    return ControllerResult(
        scenario=scenario,
        goals=goals,
        history=run.attack.backend.history,
        effect=effect,
        run=run,
    )
