"""Figure 11: stealthiness under host-level LLC-miss profiling.

OProfile-style LLC-miss monitoring of the MySQL VM under the two attack
programs: intermittent bus saturation leaves periodic miss spikes (the
attack is detectable if you watch the right counter), whereas the
memory-lock attack shows no pattern at all — same damage, no LLC
signature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..analysis.plot import ascii_timeseries
from ..analysis.report import format_table
from ..cloud.detection import DetectionReport, PeriodicitySpikeDetector
from ..monitoring.metrics import TimeSeries
from .configs import PRIVATE_CLOUD, AttackSpec, RubbosScenario
from .parallel import SweepCell, SweepExecutor, ensure_executor
from .summary import RunSummary

__all__ = ["Fig11Result", "run_fig11"]


@dataclass
class Fig11Result:
    """LLC-miss series and detector verdicts per attack program."""

    scenario: RubbosScenario
    miss_series: Dict[str, TimeSeries]
    reports: Dict[str, DetectionReport]
    summaries: Dict[str, RunSummary]

    def render(self) -> str:
        rows = []
        for program, series in self.miss_series.items():
            report = self.reports[program]
            rows.append(
                [
                    program,
                    series.mean(),
                    series.max(),
                    "PERIODIC" if report.detected else "no pattern",
                    report.detail,
                ]
            )
        table = format_table(
            ["attack program", "mean misses/50ms", "max", "verdict",
             "detail"],
            rows,
            title="Fig 11: MySQL VM LLC misses under the two attacks",
            float_format="{:.3g}",
        )
        charts = []
        for program, series in self.miss_series.items():
            start = series.times[0]
            charts.append(
                ascii_timeseries(
                    {program: series.between(start, start + 10.0)},
                    title=f"Fig 11: LLC misses under {program} (10 s)",
                    y_label="misses/50ms",
                    height=8,
                )
            )
        return "\n".join([table] + charts)


def run_fig11(
    scenario: RubbosScenario = PRIVATE_CLOUD,
    duration: Optional[float] = None,
    detector: Optional[PeriodicitySpikeDetector] = None,
    executor: Optional[SweepExecutor] = None,
) -> Fig11Result:
    """Run both attack programs with host-level LLC profiling."""
    detector = detector or PeriodicitySpikeDetector()
    if duration is not None:
        scenario = replace(scenario, duration=duration)
    assert scenario.attack is not None
    programs = ("saturate", "lock")
    variants = []
    for program in programs:
        # Bus saturation needs a small fleet of adversary VMs to bite
        # (Section III finding 1); the lock attack needs just one.
        adversaries = 4 if program == "saturate" else 1
        variants.append(
            replace(
                scenario,
                attack=replace(
                    scenario.attack,
                    program=program,
                    adversaries=adversaries,
                ),
                name=f"{scenario.name}/{program}",
            )
        )
    results = ensure_executor(executor).map(
        [
            SweepCell.make("rubbos", variant, collect_llc=True)
            for variant in variants
        ]
    )
    miss_series: Dict[str, TimeSeries] = {}
    reports: Dict[str, DetectionReport] = {}
    summaries: Dict[str, RunSummary] = {}
    for program, summary in zip(programs, results):
        assert summary.llc_series is not None
        series = summary.llc_series.between(
            scenario.warmup, scenario.duration
        )
        miss_series[program] = series
        reports[program] = detector.run(series)
        summaries[program] = summary
    return Fig11Result(
        scenario=scenario,
        miss_series=miss_series,
        reports=reports,
        summaries=summaries,
    )
