"""Compact, picklable run summaries for the parallel sweep engine.

A live :class:`~repro.experiments.runner.RubbosRun` holds the
``Simulator``, tens of thousands of generators, and every monitor — it
cannot cross a process boundary, and most figure code only reads a thin
slice of it anyway.  :class:`RunSummary` is that slice, extracted once
at the end of a run: the post-warmup request table as a structured
numpy array, the monitor time series, the attack burst log, the
measured :class:`~repro.core.attack.AttackEffect`, and the root-cause
attribution counts.  Everything in it pickles, so a worker process can
run a scenario and ship the summary back to the parent — and because
the extraction is deterministic, the summary produced by a worker is
byte-identical (as pickle bytes) to one produced inline at the same
seed.

In-process callers keep the same accessor API: ``RubbosRun`` /
``ModelRun`` and ``RunSummary`` all expose ``client_requests()``-shaped
measurement windows through the shared :func:`completed_after_warmup`
filter, so the live and summarized paths cannot disagree about what
counts as a measured request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.stats import (
    DEFAULT_PERCENTILES,
    PercentileCurve,
    percentile_curve,
)
from ..core.attack import AttackEffect
from ..core.burst import BurstRecord
from ..monitoring.metrics import TimeSeries
from ..ntier.request import Request, RequestLog
from ..sim.hybrid import FluidWindow

__all__ = [
    "AttributionCounts",
    "FluidSummary",
    "RunSummary",
    "completed_after_warmup",
    "request_table",
    "summarize_rubbos",
    "summarize_model",
    "rubbos_summary_cell",
    "model_summary_cell",
]


def completed_after_warmup(
    completed: Iterable[Request], warmup: float
) -> RequestLog:
    """The shared measurement-window filter: ``t_done >= warmup``.

    One definition used by ``RubbosRun.client_requests()``,
    ``ModelRun.client_requests()``, and the :class:`RunSummary`
    extractor, so the three can never disagree on which requests are
    inside the measured window.  A simulation's log is cut by
    bisection on its completion times (:meth:`RequestLog.between`).
    """
    return RequestLog.of(completed).between(warmup)


def request_table(
    requests: Iterable[Request], tiers: Sequence[str]
) -> np.ndarray:
    """Pack request records into a structured numpy array.

    Per-tier response times land in ``rt_<tier>`` columns (NaN when the
    request has no span at that tier), mirroring the accessor methods
    on :class:`~repro.ntier.request.Request` exactly — the floats in
    the table are the same Python floats those methods return.  Each
    column is filled from the log's columns in one assignment.
    """
    log = RequestLog.of(requests)
    fields = [
        ("rid", "i8"),
        ("t_first_attempt", "f8"),
        ("t_done", "f8"),
        ("response_time", "f8"),
        ("attempts", "i4"),
        ("failed", "?"),
        ("drops", "i4"),
        ("weight", "f8"),
    ]
    dtype = np.dtype(fields + [(f"rt_{tier}", "f8") for tier in tiers])
    table = np.empty(len(log), dtype=dtype)
    for name, _ in fields:
        table[name] = log.column(name)
    for tier in tiers:
        table[f"rt_{tier}"] = log.tier_response_times(tier)
    return table


@dataclass(frozen=True)
class AttributionCounts:
    """Root-cause attribution of a run, reduced to its counts.

    The full :class:`~repro.analysis.attribution.AttributionReport`
    holds one record per slow request; across a sweep only the headline
    numbers travel: how many slow requests, how many overlap an attack
    burst or millibottleneck episode, and which latency component
    dominates how often.
    """

    threshold: float
    total_requests: int
    slow_requests: int
    attributed: int
    #: (component, dominated-count) pairs, most frequent first.
    dominant: Tuple[Tuple[str, int], ...]

    @property
    def coverage(self) -> float:
        """Fraction of slow requests overlapping a burst or episode."""
        if not self.slow_requests:
            return 1.0
        return self.attributed / self.slow_requests


@dataclass(frozen=True)
class FluidSummary:
    """Bulk-population outcome of a hybrid fluid/DES run."""

    bulk_users: int
    sampled_users: int
    #: Real users each sampled discrete request stands for.
    weight: float
    #: Bulk request completions over the whole run (fluid mass).
    completed: float
    #: Bulk front-tier drops over the whole run (fluid mass).
    dropped: float
    #: tier -> peak nested bulk occupancy.
    peak_queues: Dict[str, float]
    #: Per-publish-window bulk state summaries.
    windows: Tuple[FluidWindow, ...]


@dataclass(eq=False)
class RunSummary:
    """Everything a figure generator needs, in picklable form."""

    #: The scenario that produced the run (RubbosScenario/ModelScenario).
    scenario: Any
    #: Model-run service discipline, or None for closed-loop RUBBoS.
    mode: Optional[str]
    tiers: Tuple[str, ...]
    #: Post-warmup completed requests (see :func:`request_table`).
    requests: np.ndarray
    #: The attacker's executed ON bursts (empty without an attack).
    bursts: Tuple[BurstRecord, ...]
    #: tier -> full fine-grained CPU-utilization series.
    util_series: Dict[str, TimeSeries]
    #: tier -> full queue-length series.
    queue_series: Dict[str, TimeSeries]
    #: LLC-miss profile of the bottleneck VM, when collected.
    llc_series: Optional[TimeSeries]
    #: Measured Effect = A(R, L, I), when an attack ran.
    effect: Optional[AttackEffect]
    #: Front-tier TCP drops accumulated over the whole run.
    front_drops: int
    #: tier -> stationary mean CPU demand (closed-loop runs only).
    mean_demands: Dict[str, float]
    #: Root-cause attribution counts, when an attack ran.
    attribution: Optional[AttributionCounts]
    #: Bulk-population stats of a hybrid run (None = full DES).
    fluid: Optional[FluidSummary] = None

    # -- accessors shared with RubbosRun/ModelRun callers -----------------

    @property
    def measured_window(self) -> float:
        return self.scenario.duration - self.scenario.warmup

    def client_response_times(self) -> np.ndarray:
        """Client-perceived RTs of successful post-warmup requests."""
        ok = self.requests[~self.requests["failed"]]
        return ok["response_time"]

    def tier_response_times(self, tier: str) -> np.ndarray:
        """Per-tier RTs over the requests that visited ``tier``."""
        column = self.requests[f"rt_{tier}"]
        return column[~np.isnan(column)]

    def percentile_curves(
        self, percentiles: Sequence[float] = DEFAULT_PERCENTILES
    ) -> Dict[str, PercentileCurve]:
        """Per-tier plus client percentile curves (the Fig 2/7 shape)."""
        curves: Dict[str, PercentileCurve] = {}
        for tier in self.tiers:
            samples = self.tier_response_times(tier)
            if samples.size:
                curves[tier] = percentile_curve(tier, samples, percentiles)
        curves["client"] = percentile_curve(
            "client", self.client_response_times(), percentiles
        )
        return curves

    def client_points(
        self, t0: float, t1: float
    ) -> List[Tuple[float, float]]:
        """(completion time, response time) pairs with t0 <= done < t1."""
        done = self.requests["t_done"]
        mask = (done >= t0) & (done < t1)
        window = self.requests[mask]
        return [
            (float(t), float(rt))
            for t, rt in zip(window["t_done"], window["response_time"])
        ]

    def bursts_between(self, t0: float, t1: float) -> List[BurstRecord]:
        """Bursts overlapping [t0, t1)."""
        return [b for b in self.bursts if b.start < t1 and b.end > t0]

    def weighted_throughput(self) -> float:
        """Population-scale request rate over the measured window.

        Each sampled request counts as ``weight`` real requests, so a
        hybrid run reports the full population's throughput; in a
        full-DES run every weight is 1.0 and this is plain
        completions / window.
        """
        ok = self.requests[~self.requests["failed"]]
        window = self.measured_window
        if window <= 0:
            return 0.0
        return float(ok["weight"].sum()) / window


def _attribution_counts(
    run, threshold: float, requests: RequestLog
) -> AttributionCounts:
    from ..analysis.attribution import attribute_run

    report = attribute_run(run, threshold=threshold, requests=requests)
    return AttributionCounts(
        threshold=threshold,
        total_requests=report.total_requests,
        slow_requests=report.slow_requests,
        attributed=report.attributed_count,
        dominant=tuple(report.dominant_counts().items()),
    )


def summarize_rubbos(
    run,
    effect_percentiles: Optional[Sequence[int]] = None,
    attribution_threshold: float = 1.0,
) -> RunSummary:
    """Extract a :class:`RunSummary` from a finished RUBBoS run.

    The post-warmup window is cut once, after the attack effect's own
    window is gone, and the request table and the attribution share it.
    """
    tiers = tuple(tier.name for tier in run.app.tiers)
    effect = None
    burst_log: List[BurstRecord] = []
    attribution = None
    if run.attack is not None:
        if effect_percentiles is not None:
            effect = run.attack.effect(
                percentiles=tuple(effect_percentiles)
            )
        else:
            effect = run.attack.effect()
        if run.attack.attacker is not None:
            burst_log.extend(run.attack.attacker.bursts)
    # A NIC-contention attacker logs the same BurstRecord timeline;
    # merge it so net-only and combined attacks summarize with their
    # bursts and attribution populated (the AttackEffect stays a
    # memory-side measurement and remains None without one).
    net_attack = getattr(run, "net_attack", None)
    if net_attack is not None:
        burst_log.extend(net_attack.bursts)
        burst_log.sort(key=lambda b: b.start)
    requests = completed_after_warmup(
        run.app.completed, run.scenario.warmup
    )
    if run.attack is not None or net_attack is not None:
        attribution = _attribution_counts(
            run, attribution_threshold, requests
        )
    bursts: Tuple[BurstRecord, ...] = tuple(burst_log)
    fluid = None
    engine = getattr(run, "fluid", None)
    if engine is not None:
        fluid = FluidSummary(
            bulk_users=engine.bulk_users,
            sampled_users=run.population.users,
            weight=run.population.weight,
            completed=engine.completed,
            dropped=engine.dropped,
            peak_queues=dict(engine.peak_queues),
            windows=tuple(engine.windows),
        )
    return RunSummary(
        scenario=run.scenario,
        mode=None,
        tiers=tiers,
        requests=request_table(requests, tiers),
        bursts=bursts,
        util_series={
            name: monitor.series
            for name, monitor in run.util_monitors.items()
        },
        queue_series=dict(run.queue_sampler.series),
        llc_series=(
            run.llc_profiler.series if run.llc_profiler is not None else None
        ),
        effect=effect,
        front_drops=run.app.front.drops,
        mean_demands={
            tier: run.workload.mean_demand(tier) for tier in tiers
        },
        attribution=attribution,
        fluid=fluid,
    )


def summarize_model(run) -> RunSummary:
    """Extract a :class:`RunSummary` from a finished model run."""
    tiers = tuple(run.scenario.tier_names)
    requests = completed_after_warmup(
        run.app.completed, run.scenario.warmup
    )
    return RunSummary(
        scenario=run.scenario,
        mode=run.mode,
        tiers=tiers,
        requests=request_table(requests, tiers),
        bursts=tuple(run.attacker.bursts),
        util_series={"mysql": run.mysql_monitor.series},
        queue_series=dict(run.queue_sampler.series),
        llc_series=None,
        effect=None,
        front_drops=run.app.front.drops,
        mean_demands={},
        attribution=None,
    )


# -- sweep cell entry points (imported by name in worker processes) -------


def rubbos_summary_cell(
    scenario,
    collect_llc: bool = False,
    effect_percentiles: Optional[Tuple[int, ...]] = None,
    attribution_threshold: float = 1.0,
) -> RunSummary:
    """Run one closed-loop RUBBoS scenario and summarize it."""
    from .runner import run_rubbos

    run = run_rubbos(scenario, collect_llc=collect_llc)
    return summarize_rubbos(
        run,
        effect_percentiles=effect_percentiles,
        attribution_threshold=attribution_threshold,
    )


def model_summary_cell(
    spec, queue_sample_interval: float = 0.005
) -> RunSummary:
    """Run one (ModelScenario, mode) cell and summarize it."""
    from .runner import run_model

    scenario, mode = spec
    return summarize_model(
        run_model(scenario, mode, queue_sample_interval=queue_sample_interval)
    )
