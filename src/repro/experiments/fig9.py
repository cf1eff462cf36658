"""Figure 9: an 8-second fine-grained snapshot of MemCA damage.

Four aligned views at 50 ms monitoring granularity:

(a) the adversary VM's attack bursts (ON windows);
(b) transient CPU saturations of the co-located MySQL VM;
(c) queue propagation through MySQL -> Tomcat -> Apache each burst;
(d) client response times, with the > 1 s retransmission victims.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.report import format_series, format_table
from ..core.burst import BurstRecord
from ..monitoring.metrics import TimeSeries
from .configs import PRIVATE_CLOUD, RubbosScenario
from .parallel import SweepCell, SweepExecutor, ensure_executor
from .runner import RubbosRun
from .summary import RunSummary, summarize_rubbos

__all__ = ["Fig9Result", "run_fig9"]


@dataclass
class Fig9Result:
    """The four panels over one snapshot window."""

    scenario: RubbosScenario
    window: Tuple[float, float]
    bursts: List[BurstRecord]
    mysql_util: TimeSeries
    queue_series: Dict[str, TimeSeries]
    #: (completion time, response time) per client request in-window.
    client_points: List[Tuple[float, float]]
    summary: RunSummary

    # -- panel assertions ---------------------------------------------------

    def client_peak(self) -> float:
        """Worst client response time in the window (panel d)."""
        if not self.client_points:
            return 0.0
        return max(rt for _t, rt in self.client_points)

    def render(self) -> str:
        lines = [
            f"Fig 9 snapshot [{self.window[0]:.1f}s, {self.window[1]:.1f}s] "
            f"of scenario {self.scenario.name!r}"
        ]
        rows = [
            [
                f"{b.start:.2f}",
                f"{b.end:.2f}",
                f"{b.length * 1e3:.0f}ms",
                f"{b.intensity:.2f}",
            ]
            for b in self.bursts
        ]
        lines.append(
            format_table(
                ["burst start", "end", "length", "intensity"],
                rows,
                title="(a) attack bursts in adversary VM",
            )
        )
        lines.append(
            "(b) " + format_series(
                "MySQL CPU utilization",
                list(self.mysql_util.times),
                list(self.mysql_util.values),
                value_format="{:.2f}",
            )
        )
        for tier in ("mysql", "tomcat", "apache"):
            series = self.queue_series[tier]
            lines.append(
                "(c) " + format_series(
                    f"{tier} queue length",
                    list(series.times),
                    list(series.values),
                    value_format="{:.0f}",
                )
            )
        slow = [(t, rt) for t, rt in self.client_points if rt > 1.0]
        lines.append(
            f"(d) client requests completed in window: "
            f"{len(self.client_points)}, of which {len(slow)} took > 1 s "
            f"(peak {self.client_peak():.2f}s)"
        )
        return "\n".join(lines)


def run_fig9(
    scenario: RubbosScenario = PRIVATE_CLOUD,
    window_start: float = 20.0,
    window_length: float = 8.0,
    duration: Optional[float] = None,
    run: Optional[Union[RubbosRun, RunSummary]] = None,
    executor: Optional[SweepExecutor] = None,
) -> Fig9Result:
    """Run (or reuse) a RUBBoS attack and cut the snapshot window.

    ``run`` may be a live :class:`RubbosRun` or an already-extracted
    :class:`RunSummary`; either way the same summary-based path builds
    the panels.
    """
    if run is None:
        if duration is not None:
            scenario = replace(scenario, duration=duration)
        summary = ensure_executor(executor).run(
            SweepCell.make("rubbos", scenario)
        )
    elif isinstance(run, RunSummary):
        summary = run
    else:
        summary = summarize_rubbos(run)
    scenario = summary.scenario
    w0, w1 = window_start, window_start + window_length
    if w1 > scenario.duration:
        raise ValueError("snapshot window extends past the run")
    if w0 < scenario.warmup:
        raise ValueError(
            "snapshot window starts inside warmup (summaries only "
            "retain post-warmup requests)"
        )
    if not summary.bursts:
        raise ValueError("Fig 9 needs an attack run (no bursts recorded)")
    bursts = summary.bursts_between(w0, w1)
    mysql_util = summary.util_series["mysql"].between(w0, w1)
    queue_series = {
        tier: summary.queue_series[tier].between(w0, w1)
        for tier in ("apache", "tomcat", "mysql")
    }
    client_points = summary.client_points(w0, w1)
    return Fig9Result(
        scenario=scenario,
        window=(w0, w1),
        bursts=bursts,
        mysql_util=mysql_util,
        queue_series=queue_series,
        client_points=client_points,
        summary=summary,
    )
