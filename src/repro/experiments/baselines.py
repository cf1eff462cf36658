"""MemCA vs. the external DoS baselines (the paper's positioning).

Runs four campaigns against the same deployment and workload — no
attack, a volumetric flood, a pulsating (tail-attack-style) HTTP
burster, and MemCA — and scores each on both axes the paper cares
about:

* **damage** — legitimate clients' p95 and the fraction above the TCP
  RTO;
* **stealth** — does CloudWatch-grade auto-scaling fire?  does a
  traffic-side rate-anomaly detector fire?  does host-level LLC
  profiling see a periodic signature?

The expected outcome, quantified: flooding is damaging but loudly
detectable; pulsating bursts damage stealthily against *utilization*
monitors but are visible in the request stream; MemCA alone clears
every detector while exceeding the damage goal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Generator, List, Optional

import numpy as np

from ..analysis.report import format_table
from ..cloud.autoscaling import AutoScalingPolicy
from ..cloud.detection import PeriodicitySpikeDetector, RateAnomalyDetector
from ..core.baselines import FloodingAttack, PulsatingAttack
from ..monitoring.metrics import TimeSeries
from ..monitoring.sampler import PeriodicSampler
from .configs import PRIVATE_CLOUD, RubbosScenario
from .parallel import SweepCell, SweepExecutor, ensure_executor
from .runner import RubbosRun, run_rubbos

__all__ = ["BaselineRow", "BaselineComparison", "run_baseline_comparison"]

CAMPAIGNS = ("none", "flood", "pulsating", "memca")


@dataclass(frozen=True)
class BaselineRow:
    """One campaign's damage and stealth scores."""

    campaign: str
    legit_p95: float
    fraction_above_rto: float
    drops: int
    avg_mysql_util: float
    autoscaling_triggered: bool
    rate_anomaly_detected: bool
    llc_signature_detected: bool

    @property
    def damaging(self) -> bool:
        return self.legit_p95 > 1.0

    @property
    def stealthy(self) -> bool:
        return not (
            self.autoscaling_triggered
            or self.rate_anomaly_detected
            or self.llc_signature_detected
        )


@dataclass
class BaselineComparison:
    scenario: RubbosScenario
    rows: List[BaselineRow]

    def row(self, campaign: str) -> BaselineRow:
        for row in self.rows:
            if row.campaign == campaign:
                return row
        raise KeyError(campaign)

    def render(self) -> str:
        table_rows = [
            [
                r.campaign,
                f"{r.legit_p95 * 1e3:.0f} ms",
                f"{r.fraction_above_rto:.1%}",
                r.drops,
                f"{r.avg_mysql_util:.0%}",
                "YES" if r.autoscaling_triggered else "no",
                "YES" if r.rate_anomaly_detected else "no",
                "YES" if r.llc_signature_detected else "no",
                "DAMAGING+STEALTHY"
                if r.damaging and r.stealthy
                else ("damaging" if r.damaging else "-"),
            ]
            for r in self.rows
        ]
        return format_table(
            ["campaign", "legit p95", ">RTO", "drops", "mysql util",
             "autoscale?", "rate alarm?", "LLC alarm?", "verdict"],
            table_rows,
            title="MemCA vs external DoS baselines (same target, same "
                  "legitimate workload)",
        )


def _arrival_rate_series(
    sampler: PeriodicSampler, key: str, interval: float
) -> TimeSeries:
    """Convert a cumulative arrival-count series to per-interval rates."""
    cumulative = sampler.series[key]
    rates = TimeSeries("arrival-rate")
    previous = 0.0
    for t, value in cumulative:
        rates.append(t, (value - previous))
        previous = value
    return rates


def _run_campaign(
    scenario: RubbosScenario, campaign: str
) -> BaselineRow:
    if campaign == "memca":
        variant = replace(scenario, name=f"baseline/{campaign}")
    else:
        variant = replace(
            scenario, name=f"baseline/{campaign}", attack=None
        )
    rate_samplers = []

    def add_campaign(run: RubbosRun) -> None:
        sim = run.sim
        front = run.app.front
        rate_sampler = PeriodicSampler(
            sim, 1.0, {"arrivals": lambda: float(front.arrivals)}
        )
        rate_sampler.start()
        rate_samplers.append(rate_sampler)

        attacker = None
        rng = np.random.default_rng(scenario.seed + 17)
        if campaign == "flood":
            attacker = FloodingAttack(
                sim, run.app, run.workload.make_request,
                rate=700.0, rng=rng,
            )
        elif campaign == "pulsating":
            attacker = PulsatingAttack(
                sim, run.app, run.workload.make_request,
                burst_rate=2000.0, length=0.25,
                interval=scenario.attack.interval,
                rng=rng,
            )
        if attacker is not None:
            attacker.start()

    run = run_rubbos(variant, collect_llc=True, attach=add_campaign)
    (rate_sampler,) = rate_samplers
    legit = [
        r for r in run.client_requests() if not r.page.startswith("attack:")
    ]
    rts = np.array([r.response_time for r in legit])
    mysql_util = run.util_monitors["mysql"].series.between(
        variant.warmup, variant.duration
    )
    policy = AutoScalingPolicy(threshold=0.85, period=20.0)
    rates = _arrival_rate_series(rate_sampler, "arrivals", 1.0).between(
        variant.warmup, variant.duration
    )
    # Baseline legitimate traffic: users / think time (known to the
    # operator from quiet periods).
    baseline_rate = scenario.users / scenario.think_time
    rate_report = RateAnomalyDetector(baseline=baseline_rate).run(rates)
    llc = run.llc_profiler.series.between(
        variant.warmup, variant.duration
    )
    llc_report = PeriodicitySpikeDetector().run(llc)
    return BaselineRow(
        campaign=campaign,
        legit_p95=float(np.percentile(rts, 95)) if len(rts) else 0.0,
        fraction_above_rto=float(np.mean(rts > 1.0)) if len(rts) else 0.0,
        drops=run.app.front.drops,
        avg_mysql_util=mysql_util.mean(),
        autoscaling_triggered=bool(policy.evaluate(mysql_util)),
        rate_anomaly_detected=rate_report.detected,
        llc_signature_detected=llc_report.detected,
    )


def baseline_cell(spec) -> BaselineRow:
    """Sweep-cell entry point: one (scenario, campaign) baseline run."""
    scenario, campaign = spec
    return _run_campaign(scenario, campaign)


def run_baseline_comparison(
    scenario: Optional[RubbosScenario] = None,
    executor: Optional[SweepExecutor] = None,
) -> BaselineComparison:
    """Run all four campaigns against identical deployments."""
    base = scenario or replace(PRIVATE_CLOUD, duration=80.0)
    rows = ensure_executor(executor).map(
        [
            SweepCell.make("baseline-campaign", (base, campaign))
            for campaign in CAMPAIGNS
        ]
    )
    return BaselineComparison(scenario=base, rows=rows)
