"""The observability stack: retained traces, streaming tails, SLO alarms.

The paper's central measurement problem, turned into an online system:
millibottleneck damage is visible *only* in the latency tail (average-
based monitors see nothing), yet retaining a full trace of every
request at million-user scale is memory-infeasible.  One bundle,
:class:`LiveTelemetry`, closes that gap with cooperating pieces all
configured by one :class:`~repro.obs.tracer.TelemetryConfig` and
driven passively off the :class:`~repro.obs.bus.EventBus`
request-lifecycle topics — nothing here schedules a simulation event
or consumes an RNG stream, so fixed-seed results with the stack on are
byte-identical to results with it off (pinned in
``tests/test_determinism.py``):

* :class:`~repro.obs.tracer.Tracer` — records a span tree for *every*
  request and decides retention at finish: keep-all
  (:data:`~repro.obs.tracer.FULL_TRACING`), or a base sample plus the
  promoted tail at or above a P99 that its own log-bucketed sketch
  re-reads every ``min_promote_samples`` completions, optionally
  budgeted per window.
* :class:`TelemetryPipeline` — tumbling-window quantile sketches
  (:class:`~repro.obs.sketch.LogHistogram`, O(1) memory per window,
  mergeable) for end-to-end and per-tier latency, exposing live
  P50/P99/P99.9 series plus run-cumulative estimates with guaranteed
  relative accuracy; emits a :class:`WindowReport` per closed window
  to registered callbacks (the CLI's live display, the detector).
  Built only when ``config.window`` is set.
* :class:`TailSloDetector` — watches the end-to-end windowed tail and
  publishes ``slo.violation`` (tail above the SLO for ``consecutive``
  windows) and ``millibottleneck.onset`` (tail jumping a factor above
  its rolling baseline) bus topics, which
  :class:`repro.cloud.defense.MillibottleneckDefense` consumes via
  ``attach_bus`` to trigger migration on *live traced tail latency*
  instead of post-hoc utilization episodes.  Built only when
  ``config.slo`` is set.

:class:`LiveTelemetry` bundles them with the metrics registry and the
kernel self-profiler; ``run_rubbos(tracing=...)`` wires it into a run,
and ``python -m repro trace|monitor <scenario>`` drive it from the
shell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .bus import EventBus, KernelProfiler
from .metrics import MetricsRegistry
from .sketch import LogHistogram
from .tracer import TelemetryConfig, Tracer

__all__ = [
    "WindowReport",
    "TelemetryPipeline",
    "TailSloDetector",
    "LiveTelemetry",
]

#: Pipeline key for the client-perceived end-to-end latency sketch.
E2E = "e2e"

#: Pipeline key for network chain-traversal latency (``net.*`` topics,
#: present only in runs with a routed inter-tier network).
NET = "net"


@dataclass
class WindowReport:
    """One closed telemetry window, ready for display or detection."""

    index: int
    start: float
    end: float
    #: Requests completed / failed / dropped-attempts in the window.
    completed: int = 0
    failed: int = 0
    dropped: int = 0
    #: Network messages discarded by a queue-chain stage in the window
    #: (0 unless the run routes RPCs through ``repro.net``).
    net_dropped: int = 0
    #: key -> quantile (percentile units) -> estimate; empty keys
    #: (no observations in the window) are absent.
    quantiles: Dict[str, Dict[float, float]] = field(default_factory=dict)
    #: key -> observations folded into this window's sketch.
    samples: Dict[str, int] = field(default_factory=dict)
    #: Traces retained by the tracer during the window.
    base_retained: int = 0
    promoted: int = 0
    #: Base-sample stride in effect when the window closed.
    stride: int = 0

    def quantile(self, q: float, key: str = E2E) -> Optional[float]:
        values = self.quantiles.get(key)
        return None if values is None else values.get(q)


class TelemetryPipeline:
    """Windowed + cumulative latency sketches over bus lifecycle topics.

    Subscribes to ``request.completed`` / ``request.failed`` /
    ``request.dropped`` and maintains one :class:`LogHistogram` per key
    (end-to-end plus each tier) per tumbling window, folding closed
    windows into run-cumulative sketches.  Windows close lazily when an
    observation lands past their end (plus a final :meth:`flush` at the
    horizon), so the pipeline never schedules simulation events — the
    live path costs one bucket increment per key per completion.
    """

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        bus: Optional[EventBus] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config if config is not None else TelemetryConfig()
        self.bus = bus if bus is not None else EventBus()
        self.tracer = tracer
        self.tier_names: Tuple[str, ...] = ()
        #: Closed windows, oldest first.
        self.reports: List[WindowReport] = []
        #: key -> run-cumulative sketch (all closed + open windows).
        self.cumulative: Dict[str, LogHistogram] = {}
        self.on_window: List[Callable[[WindowReport], None]] = []
        self._window_index = 0
        self._window_hists: Dict[str, LogHistogram] = {}
        #: The open window's completion sketches — e2e, then one per
        #: tier in ``tier_names`` order — each resolved on first use in
        #: the window (None until then, or the whole list None).
        self._completion_hists: Optional[List[Optional[LogHistogram]]] = None
        self._completed = 0
        self._failed = 0
        self._dropped = 0
        self._net_dropped = 0
        self._tracer_base_seen = 0
        self._tracer_promoted_seen = 0
        self._attached = False

    # -- wiring -----------------------------------------------------------

    def attach(self, app=None) -> "TelemetryPipeline":
        """Subscribe to the bus (and learn tier names from ``app``)."""
        if self._attached:
            return self
        self._attached = True
        if app is not None:
            self.tier_names = tuple(tier.name for tier in app.tiers)
        self.bus.subscribe("request.completed", self._on_completed)
        self.bus.subscribe("request.failed", self._on_failed)
        self.bus.subscribe("request.dropped", self._on_dropped)
        # The whole net.* family: delivered transfers feed the NET
        # latency sketch, stage drops are tallied per window.
        self.bus.subscribe("net.*", self._on_net)
        return self

    # -- window machinery -------------------------------------------------

    def _window_bounds(self, index: int) -> Tuple[float, float]:
        w = self.config.window
        return index * w, (index + 1) * w

    def _hist(self, key: str) -> LogHistogram:
        hist = self._window_hists.get(key)
        if hist is None:
            hist = self._window_hists[key] = LogHistogram(
                self.config.accuracy
            )
        return hist

    def _close_through(self, t: float) -> None:
        """Close every window whose end is at or before ``t``."""
        while True:
            start, end = self._window_bounds(self._window_index)
            if t < end:
                return
            self._close_window(start, end)

    def _close_window(self, start: float, end: float) -> None:
        report = WindowReport(
            index=self._window_index,
            start=start,
            end=end,
            completed=self._completed,
            failed=self._failed,
            dropped=self._dropped,
            net_dropped=self._net_dropped,
        )
        for key, hist in self._window_hists.items():
            if hist.count == 0:
                continue
            report.samples[key] = hist.count
            report.quantiles[key] = {
                q: hist.quantile(q) for q in self.config.quantiles
            }
            cumulative = self.cumulative.get(key)
            if cumulative is None:
                cumulative = self.cumulative[key] = LogHistogram(
                    self.config.accuracy
                )
            cumulative.merge(hist)
        tracer = self.tracer
        if tracer is not None:
            report.base_retained = (
                tracer.base_retained - self._tracer_base_seen
            )
            report.promoted = tracer.promoted - self._tracer_promoted_seen
            report.stride = tracer.stride
            self._tracer_base_seen = tracer.base_retained
            self._tracer_promoted_seen = tracer.promoted
        self.reports.append(report)
        self._window_hists = {}
        self._completion_hists = None
        self._completed = self._failed = self._dropped = 0
        self._net_dropped = 0
        self._window_index += 1
        for callback in self.on_window:
            callback(report)

    def flush(self, until: float) -> None:
        """Close all windows ending at or before ``until`` (run end)."""
        self._close_through(until)

    # -- lifecycle consumers ----------------------------------------------

    def _on_completed(self, request) -> None:
        t = request.t_done
        self._close_through(t)
        self._completed += 1
        hists = self._completion_hists
        if hists is None:
            hists = self._completion_hists = [None] * (
                1 + len(self.tier_names)
            )
        rt = request.response_time
        if rt is not None:
            hist = hists[0]
            if hist is None:
                hist = hists[0] = self._hist(E2E)
            hist.observe(rt)
        for i, tier in enumerate(self.tier_names, 1):
            tier_rt = request.tier_response_time(tier)
            if tier_rt is None:
                continue
            hist = hists[i]
            if hist is None:
                hist = hists[i] = self._hist(tier)
            hist.observe(tier_rt)

    def _on_failed(self, request) -> None:
        self._close_through(request.t_done)
        self._failed += 1

    def _on_dropped(self, request) -> None:
        # Drops arrive mid-request (before any completion timestamp);
        # tally only — the window closes on the next completion.
        self._dropped += 1

    def _on_net(self, event) -> None:
        if event.kind == "delivered":
            self._close_through(event.t)
            self._hist(NET).observe(event.latency)
        elif event.kind == "dropped":
            self._net_dropped += 1

    # -- queries ----------------------------------------------------------

    def estimate(self, q: float, key: str = E2E) -> Optional[float]:
        """Cumulative quantile estimate over all *closed* windows."""
        hist = self.cumulative.get(key)
        if hist is None or hist.count == 0:
            return None
        return hist.quantile(q)

    def series(self, q: float, key: str = E2E) -> List[Tuple[float, float]]:
        """Live (window end, estimate) points for one quantile."""
        out = []
        for report in self.reports:
            value = report.quantile(q, key)
            if value is not None:
                out.append((report.end, value))
        return out

    def snapshot(self) -> dict:
        """Cumulative sketch snapshots per key."""
        return {
            key: hist.snapshot(self.config.quantiles)
            for key, hist in sorted(self.cumulative.items())
        }


class TailSloDetector:
    """Turns windowed tail estimates into defense-consumable topics.

    Registered as a :class:`TelemetryPipeline` window callback.  Two
    signals, both on the end-to-end tail:

    * ``slo.violation`` — the windowed ``slo_quantile`` estimate sits
      at/above ``slo`` for ``consecutive_windows`` windows in a row;
      emitted once per violating window from then on (each emission is
      one "episode" to :class:`repro.cloud.defense
      .MillibottleneckDefense`).
    * ``millibottleneck.onset`` — the windowed tail jumps to at least
      ``onset_factor`` times the rolling median of the previous
      ``baseline_windows`` windows: the transient-saturation signature,
      caught at window granularity instead of post-hoc.
    """

    def __init__(
        self, config: TelemetryConfig, bus: EventBus
    ):
        if config.slo is None:
            raise ValueError("TailSloDetector needs config.slo set")
        self.config = config
        self.bus = bus
        #: (window end, estimate) of every emitted violation.
        self.violations: List[Tuple[float, float]] = []
        #: (window end, estimate, baseline) of every emitted onset.
        self.onsets: List[Tuple[float, float, float]] = []
        self._streak = 0
        self._recent: List[float] = []
        self._last_onset = float("-inf")

    def on_window(self, report: WindowReport) -> None:
        config = self.config
        value = report.quantile(config.slo_quantile)
        if value is None:
            # An empty window carries no tail evidence either way.
            return
        baseline = self._baseline()
        if (
            baseline is not None
            and value >= config.onset_factor * baseline
            and report.end - self._last_onset >= config.onset_cooldown
        ):
            self._last_onset = report.end
            self.onsets.append((report.end, value, baseline))
            self.bus.publish(
                "millibottleneck.onset",
                {
                    "time": report.end,
                    "window": report.index,
                    "estimate": value,
                    "baseline": baseline,
                    "quantile": config.slo_quantile,
                },
            )
        if value >= config.slo:
            self._streak += 1
            if self._streak >= config.consecutive_windows:
                self.violations.append((report.end, value))
                self.bus.publish(
                    "slo.violation",
                    {
                        "time": report.end,
                        "window": report.index,
                        "estimate": value,
                        "slo": config.slo,
                        "quantile": config.slo_quantile,
                        "streak": self._streak,
                    },
                )
        else:
            self._streak = 0
        self._recent.append(value)
        if len(self._recent) > config.baseline_windows:
            del self._recent[0]

    def _baseline(self) -> Optional[float]:
        """Median windowed tail over the trailing baseline windows."""
        recent = self._recent
        if len(recent) < self.config.baseline_windows:
            return None
        ordered = sorted(recent)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])


class LiveTelemetry:
    """The observability stack, bundled and wired into one run.

    One bus + metrics registry + tracer + kernel self-profiler, plus
    the streaming pipeline when ``config.window`` is set and the
    tail-SLO detector when ``config.slo`` is set.  ``attach`` hooks it
    into a simulator/application pair; ``finalize`` flushes trailing
    windows at the horizon.
    """

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config if config is not None else TelemetryConfig()
        self.bus = EventBus()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.config, metrics=self.metrics, bus=self.bus)
        self.pipeline: Optional[TelemetryPipeline] = None
        self.detector: Optional[TailSloDetector] = None
        if self.config.window is not None:
            self.pipeline = TelemetryPipeline(
                self.config, bus=self.bus, tracer=self.tracer
            )
            if self.config.slo is not None:
                self.detector = TailSloDetector(self.config, self.bus)
                self.pipeline.on_window.append(self.detector.on_window)
        self.kernel = KernelProfiler(
            sample_every=self.config.kernel_sample_every,
            metrics=self.metrics,
        )

    def attach(self, sim, app=None) -> "LiveTelemetry":
        sim.attach_hooks(self.kernel)
        if app is not None:
            app.tracer = self.tracer
        if self.pipeline is not None:
            self.pipeline.attach(app)
        return self

    def finalize(self, until: float) -> "LiveTelemetry":
        """Close the windows still open at the simulation horizon."""
        if self.pipeline is not None:
            self.pipeline.flush(until)
        return self

    def report(self) -> dict:
        """Kernel summary, metrics snapshot, retention, and sketches."""
        tracer = self.tracer
        out = {
            "kernel": self.kernel.summary(),
            "metrics": self.metrics.snapshot(),
            "traces": {
                "retained": tracer.retained,
                "base": tracer.base_retained,
                "promoted": tracer.promoted,
                "discarded": tracer.discarded,
                "stride": tracer.stride,
                "threshold": tracer.threshold,
            },
        }
        if self.pipeline is not None:
            out["sketches"] = self.pipeline.snapshot()
            out["windows"] = len(self.pipeline.reports)
        if self.detector is not None:
            out["slo"] = {
                "violations": len(self.detector.violations),
                "onsets": len(self.detector.onsets),
            }
        return out
