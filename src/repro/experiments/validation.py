"""Model validation: Eqs. 2-10 predictions vs. DES measurements.

For a sweep of burst parameterizations, measure from the simulator the
quantities the closed-form model predicts — bottleneck fill time,
total build-up, damage period, millibottleneck length — and put them
next to (i) the paper's Eqs. 4-6 (independent per-tier arrival
streams) and (ii) the flow-conservation variant.  The DES should track
the conservative variant closely and bracket the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.report import format_table
from ..model.attack_model import StageAnalysis, analyze
from ..model.parameters import AttackBurst
from .configs import MODEL_3TIER, ModelScenario, model_system
from .runner import ModelRun, run_model

__all__ = ["BurstMeasurement", "ValidationRow", "ValidationResult",
           "measure_bursts", "run_validation"]


@dataclass(frozen=True)
class BurstMeasurement:
    """Mean per-burst quantities measured from one DES run."""

    bursts_observed: int
    fill_time_back: Optional[float]
    build_up_total: Optional[float]
    damage_period: Optional[float]
    millibottleneck: Optional[float]


def measure_bursts(
    run: ModelRun, saturation_threshold: float = 0.95
) -> BurstMeasurement:
    """Extract per-burst stage timings from a finite-queue model run."""
    scenario = run.scenario
    back_name = scenario.tier_names[-1]
    front_name = scenario.tier_names[0]
    back_cap = scenario.queue_sizes[-1]
    front_cap = scenario.queue_sizes[0]
    back_series = run.queue_sampler.series[back_name]
    front_series = run.queue_sampler.series[front_name]
    util = run.mysql_monitor.series

    fill_times: List[float] = []
    build_ups: List[float] = []
    damages: List[float] = []
    millis: List[float] = []
    bursts = [
        b for b in run.attacker.bursts if b.start >= scenario.warmup
    ]
    for burst in bursts:
        # A dropped request's TCP retry lands ~1 s later and can cause
        # a second, disjoint saturation echo; keep the window short and
        # only count spans contiguous with this burst.
        window_end = burst.end + 0.5
        back_w = back_series.between(burst.start, window_end)
        front_w = front_series.between(burst.start, window_end)
        for t, v in back_w:
            if v >= back_cap:
                fill_times.append(t - burst.start)
                break
        full_spans = front_w.intervals_above(front_cap - 0.5)
        burst_spans = [
            (s, e)
            for s, e in full_spans
            if s <= burst.end + 0.2  # started during/just after the burst
        ]
        if burst_spans:
            build_ups.append(burst_spans[0][0] - burst.start)
            damages.append(sum(e - s for s, e in burst_spans))
        util_w = util.between(burst.start, window_end)
        overlapping = [
            (s, e)
            for s, e in util_w.intervals_above(saturation_threshold)
            if s < burst.end  # the millibottleneck starts inside the burst
        ]
        if overlapping:
            millis.append(max(e - s for s, e in overlapping))

    def mean(xs: List[float]) -> Optional[float]:
        return float(np.mean(xs)) if xs else None

    return BurstMeasurement(
        bursts_observed=len(bursts),
        fill_time_back=mean(fill_times),
        build_up_total=mean(build_ups),
        damage_period=mean(damages),
        millibottleneck=mean(millis),
    )


@dataclass(frozen=True)
class ValidationRow:
    """One parameterization: measured vs both model variants."""

    burst: AttackBurst
    measured: BurstMeasurement
    paper: StageAnalysis
    conservative: StageAnalysis


@dataclass
class ValidationResult:
    scenario: ModelScenario
    rows: List[ValidationRow]

    def render(self) -> str:
        def ms(x: Optional[float]) -> str:
            return "-" if x is None else f"{x * 1e3:.0f}"

        table_rows = []
        for row in self.rows:
            b = row.burst
            m = row.measured
            table_rows.append(
                [
                    f"D={b.D} L={b.L * 1e3:.0f}ms I={b.I}s",
                    ms(m.fill_time_back),
                    ms(row.conservative.fill_up[-1]),
                    ms(row.paper.fill_up[-1]),
                    ms(m.build_up_total),
                    ms(row.conservative.build_up),
                    ms(row.paper.build_up),
                    ms(m.damage_period),
                    ms(row.conservative.damage_period),
                    ms(m.millibottleneck),
                    ms(row.conservative.millibottleneck),
                ]
            )
        headers = [
            "burst",
            "fill meas", "fill cons", "fill paper",
            "build meas", "build cons", "build paper",
            "P_D meas", "P_D cons",
            "P_MB meas", "P_MB cons",
        ]
        return format_table(
            headers,
            table_rows,
            title="Model validation (all times in ms, DES vs Eqs. 2-10)",
        )


def run_validation(
    scenario: ModelScenario = MODEL_3TIER,
    bursts: Tuple[AttackBurst, ...] = (
        AttackBurst(D=0.1, L=0.1, I=2.0),
        AttackBurst(D=0.1, L=0.2, I=2.0),
        AttackBurst(D=0.2, L=0.2, I=2.0),
    ),
) -> ValidationResult:
    """Sweep burst parameters; measure the DES and run both models."""
    system = model_system(scenario)
    rows = []
    for burst in bursts:
        variant = replace(scenario, burst=burst)
        run = run_model(variant, "attack-finite")
        rows.append(
            ValidationRow(
                burst=burst,
                measured=measure_bursts(run),
                paper=analyze(system, burst, conservative=False),
                conservative=analyze(system, burst, conservative=True),
            )
        )
    return ValidationResult(scenario=scenario, rows=rows)
