"""Baseline capacity validation: MVA predictions vs. the simulator.

Before trusting the attack results, validate the substrate itself: the
no-attack closed-loop RUBBoS system should match Mean Value Analysis on
throughput, response time, and bottleneck utilization across population
sizes.  This also produces the defender's capacity curve — where the
knee is, and how far below it the paper's operating point sits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.report import format_table
from ..model.mva import MvaResult, Station, mva, saturation_population
from .configs import PRIVATE_CLOUD, RubbosScenario
from .parallel import SweepCell, SweepExecutor, ensure_executor

__all__ = ["CapacityPoint", "CapacityResult", "run_capacity_validation",
           "mva_stations_for"]


def mva_stations_for(scenario: RubbosScenario, demands) -> List[Station]:
    """MVA stations matching a RUBBoS scenario's workload means.

    ``demands`` is either a workload object exposing ``mean_demand(tier)``
    or a plain ``{tier: mean demand}`` mapping (e.g. a
    :class:`~repro.experiments.summary.RunSummary`'s ``mean_demands``).
    """
    if hasattr(demands, "mean_demand"):
        mean_demand = demands.mean_demand
    else:
        mean_demand = demands.__getitem__
    return [
        Station(
            tier,
            demand=mean_demand(tier),
            servers=2,  # each tier VM has 2 vCPUs in the scenarios
        )
        for tier in ("apache", "tomcat", "mysql")
    ]


@dataclass(frozen=True)
class CapacityPoint:
    """One population size: measured vs. predicted steady state."""

    users: int
    measured_throughput: float
    predicted_throughput: float
    measured_mysql_util: float
    predicted_mysql_util: float
    measured_mean_rt: float
    predicted_mean_rt: float


@dataclass
class CapacityResult:
    scenario: RubbosScenario
    points: List[CapacityPoint]
    knee: float

    def render(self) -> str:
        rows = [
            [
                p.users,
                p.measured_throughput,
                p.predicted_throughput,
                p.measured_mysql_util,
                p.predicted_mysql_util,
                p.measured_mean_rt * 1e3,
                p.predicted_mean_rt * 1e3,
            ]
            for p in self.points
        ]
        table = format_table(
            ["users", "X meas (r/s)", "X mva", "util meas", "util mva",
             "R meas (ms)", "R mva (ms)"],
            rows,
            title="Baseline capacity: DES vs Mean Value Analysis",
            float_format="{:.3g}",
        )
        return (
            f"{table}\n"
            f"saturation knee N* ~= {self.knee:.0f} users "
            f"(paper operates at 3500, well below)"
        )


def run_capacity_validation(
    scenario: Optional[RubbosScenario] = None,
    populations: Tuple[int, ...] = (1000, 2600, 4500),
    duration: float = 40.0,
    executor: Optional[SweepExecutor] = None,
) -> CapacityResult:
    """Run the no-attack baseline at several populations vs MVA."""
    base = scenario or PRIVATE_CLOUD
    variants = [
        replace(
            base,
            name=f"capacity/{users}",
            users=users,
            duration=duration,
            attack=None,
        )
        for users in populations
    ]
    summaries = ensure_executor(executor).map(
        [SweepCell.make("rubbos", variant) for variant in variants]
    )
    points = []
    knee = 0.0
    for variant, summary in zip(variants, summaries):
        stations = mva_stations_for(variant, summary.mean_demands)
        knee = saturation_population(stations, variant.think_time)
        predicted = mva(stations, variant.users, variant.think_time)
        window = variant.duration - variant.warmup
        rt_column = summary.requests["response_time"]
        rts = rt_column[~np.isnan(rt_column)]
        mysql_util = summary.util_series["mysql"].between(
            variant.warmup, variant.duration
        ).mean()
        points.append(
            CapacityPoint(
                users=variant.users,
                measured_throughput=len(summary.requests) / window,
                predicted_throughput=predicted.throughput,
                measured_mysql_util=mysql_util,
                predicted_mysql_util=predicted.utilizations["mysql"],
                measured_mean_rt=float(np.mean(rts)),
                predicted_mean_rt=predicted.response_time,
            )
        )
    return CapacityResult(scenario=base, points=points, knee=knee)
