"""Figure 2: tail response-time amplification per tier, both clouds.

The headline result: under MemCA each tier's percentile response time
curves upward nonlinearly, amplifying from the back-end MySQL through
Tomcat and Apache to the clients, whose 95th/98th percentiles exceed
1 s / 2 s while the median stays fast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..analysis.plot import ascii_percentiles
from ..analysis.report import format_percentile_curves
from ..analysis.stats import PercentileCurve
from ..core.attack import AttackEffect
from .configs import EC2_CLOUD, PRIVATE_CLOUD, RubbosScenario
from .parallel import SweepCell, SweepExecutor, ensure_executor
from .summary import RunSummary

__all__ = ["Fig2Result", "run_fig2", "run_fig2_both", "TIER_ORDER"]

#: Front-of-figure ordering: client curve on top of the tier curves.
TIER_ORDER = ("client", "apache", "tomcat", "mysql")

#: The paper's percentile grid emphasises the tail.
PERCENTILES = (50, 75, 90, 95, 98, 99)


@dataclass
class Fig2Result:
    """Per-tier and client percentile curves for one environment."""

    environment: str
    curves: Dict[str, PercentileCurve]
    effect: Optional[AttackEffect]
    summary: RunSummary

    def render(self) -> str:
        body = format_percentile_curves(
            self.curves,
            order=TIER_ORDER,
            title=f"Fig 2 ({self.environment}): percentile response time",
        )
        if self.effect is not None:
            body += f"\n{self.effect.summary()}"
        body += "\n" + ascii_percentiles(
            self.curves, order=TIER_ORDER,
            title=f"Fig 2 ({self.environment})",
        )
        return body


def fig2_cell(scenario: RubbosScenario) -> SweepCell:
    """The sweep cell for one Fig 2 panel."""
    return SweepCell.make(
        "rubbos", scenario, effect_percentiles=PERCENTILES
    )


def _result_from(summary: RunSummary) -> Fig2Result:
    return Fig2Result(
        environment=summary.scenario.name,
        curves=summary.percentile_curves(PERCENTILES),
        effect=summary.effect,
        summary=summary,
    )


def run_fig2(
    scenario: RubbosScenario = PRIVATE_CLOUD,
    duration: Optional[float] = None,
    executor: Optional[SweepExecutor] = None,
) -> Fig2Result:
    """One environment's Fig 2 panel."""
    if duration is not None:
        scenario = replace(scenario, duration=duration)
    summary = ensure_executor(executor).run(fig2_cell(scenario))
    return _result_from(summary)


def run_fig2_both(
    duration: Optional[float] = None,
    executor: Optional[SweepExecutor] = None,
) -> Tuple[Fig2Result, Fig2Result]:
    """Both panels: (a) Amazon EC2, (b) private cloud."""
    scenarios = [EC2_CLOUD, PRIVATE_CLOUD]
    if duration is not None:
        scenarios = [replace(s, duration=duration) for s in scenarios]
    summaries = ensure_executor(executor).map(
        [fig2_cell(s) for s in scenarios]
    )
    ec2, private = (_result_from(s) for s in summaries)
    return ec2, private
