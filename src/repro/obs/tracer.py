"""Request tracers: the retaining tracer, its config, and the null path.

Instrumentation sites never talk to the tracer on the hot path — they
check ``request.trace`` (a plain attribute, ``None`` unless a recording
tracer adopted the request at send time) and skip all span work when it
is ``None``.  That keeps the disabled-tracing overhead to one attribute
load per site and, because tracing schedules no simulation events,
guarantees byte-identical results with tracing on or off.

:data:`NULL_TRACER` is the module-wide disabled singleton.
:class:`Tracer` gives *every* begun request a working
:class:`~repro.obs.columnar.ColumnarTrace` (spans stage as rows on the
trace) and decides at finish whether to keep it.  Kept traces enter
the run's shared :class:`~repro.obs.columnar.SpanStore` through
:meth:`~repro.obs.columnar.SpanStore.adopt`; discarded ones are garbage
once the request record drops its reference.  Requests still in flight
at the horizon are never retained.  Retention is configured only by
:class:`TelemetryConfig`:

* **keep-all** (:data:`FULL_TRACING`: ``base_sample_every=1``, no
  budget) — every finished request is kept.  No estimator is built and
  no window is tracked, so finish costs only the store append and the
  completion counters;
* **base sample** — every ``stride``-th finished request; with a
  ``trace_budget_per_window`` the stride re-tunes at each window
  boundary to ``round(finished / budget)``;
* **promoted** — any failed request, and any request whose response
  time reaches the promotion threshold: the ``promote_quantile`` of a
  :class:`~repro.obs.sketch.LogHistogram` of completed response times,
  re-read every ``min_promote_samples`` completions (the sketch is
  built only when retention can discard).  Promotion ignores the
  budget: under attack the tail inflates and the retained rate rises
  with it.

The tracer also counts completions, failures and retransmissions in a
:class:`~repro.obs.metrics.MetricsRegistry` and publishes the request
lifecycle topics on an optional :class:`~repro.obs.bus.EventBus`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .bus import EventBus
from .columnar import ColumnarTrace, SpanStore
from .metrics import MetricsRegistry
from .sketch import LogHistogram

__all__ = [
    "FULL_TRACING",
    "NULL_TRACER",
    "NullTracer",
    "TelemetryConfig",
    "Tracer",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """Everything the observability stack needs, in one frozen record."""

    #: Tumbling window width (simulated seconds) for live series; None
    #: runs no windowed pipeline (and so no detector).
    window: Optional[float] = 1.0
    #: Percentile series maintained per window and cumulatively.
    quantiles: Tuple[float, ...] = (50.0, 99.0, 99.9)
    #: Guaranteed relative accuracy of the log-bucketed sketches.
    accuracy: float = 0.01
    #: Initial base-sample stride (1/64 by default: keep every 64th).
    base_sample_every: int = 64
    #: Target base-retained traces per window; the tracer re-tunes the
    #: stride each window to hit it.  None pins the stride at
    #: ``base_sample_every`` (the fixed 1/64 budget of the benchmark).
    trace_budget_per_window: Optional[int] = 8
    #: Quantile (percentile units) of the completed response times that
    #: is the promotion threshold: any completion at/above it keeps its
    #: trace.
    promote_quantile: float = 99.0
    #: Completions between re-reads of the promotion threshold; the
    #: first read arms it.
    min_promote_samples: int = 100
    #: End-to-end tail SLO in seconds (None disables the detector).
    slo: Optional[float] = None
    #: Percentile the SLO applies to (must be in ``quantiles``).
    slo_quantile: float = 99.0
    #: Violating windows in a row before ``slo.violation`` fires.
    consecutive_windows: int = 2
    #: Tail-jump factor over the rolling baseline for onset detection.
    onset_factor: float = 3.0
    #: Windows in the rolling baseline median.
    baseline_windows: int = 8
    #: Minimum seconds between ``millibottleneck.onset`` emissions.
    onset_cooldown: float = 2.0
    #: Kernel self-profiler stride.
    kernel_sample_every: int = 1024

    def __post_init__(self):
        if self.window is not None and self.window <= 0:
            raise ValueError(f"window must be positive: {self.window}")
        bad = [q for q in self.quantiles if not 0.0 <= q <= 100.0]
        if bad:
            raise ValueError(f"quantiles must lie in [0, 100]: {bad}")
        if not 0.0 < self.accuracy < 1.0:
            raise ValueError(f"accuracy must be in (0, 1): {self.accuracy}")
        if self.baseline_windows < 1:
            raise ValueError(
                f"baseline_windows must be >= 1: {self.baseline_windows}"
            )
        if self.base_sample_every < 1:
            raise ValueError(
                f"base_sample_every must be >= 1: {self.base_sample_every}"
            )
        if self.min_promote_samples < 1:
            raise ValueError(
                f"min_promote_samples must be >= 1: "
                f"{self.min_promote_samples}"
            )
        budget = self.trace_budget_per_window
        if budget is not None and budget < 1:
            raise ValueError(
                f"trace_budget_per_window must be >= 1 or None: {budget}"
            )
        per_window = budget is not None or self.slo is not None
        if self.window is None and per_window:
            raise ValueError(
                "trace_budget_per_window and slo are per-window settings; "
                "set both to None when window is None"
            )
        if self.slo is not None and self.slo_quantile not in self.quantiles:
            raise ValueError(
                f"slo_quantile {self.slo_quantile} must be one of the "
                f"tracked quantiles {self.quantiles}"
            )


#: Keep every finished request's trace; no windowed pipeline.
FULL_TRACING = TelemetryConfig(
    window=None, base_sample_every=1, trace_budget_per_window=None
)


class NullTracer:
    """The disabled tracer: adopts nothing, records nothing."""

    enabled = False

    def begin_trace(self, request) -> None:
        return None

    def finish(self, request) -> None:
        return None

    def dropped(self, request, tier: str) -> None:
        return None


class Tracer:
    """Records a span tree per request; keeps the ones retention picks.

    ``config`` (default :data:`FULL_TRACING`) sets the retention policy;
    ``metrics`` and ``bus`` are optional sinks for completion
    statistics and lifecycle events.
    """

    enabled = True

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        bus: Optional[EventBus] = None,
    ):
        config = config if config is not None else FULL_TRACING
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bus = bus
        #: The shared columnar table of retained traces.
        self.store = SpanStore()
        #: Retained traces in retention order (the store's registry).
        self.traces = self.store.traces
        self.stride = config.base_sample_every
        budget = config.trace_budget_per_window
        #: Sketch of completed response times; None when retention
        #: keeps every trace and so never consults a threshold.
        self.tail: Optional[LogHistogram] = None
        if self.stride > 1 or budget is not None:
            self.tail = LogHistogram(config.accuracy)
        #: The armed promotion threshold (None while warming up).
        self.threshold: Optional[float] = None
        self.promoted = 0
        self.discarded = 0
        self._finished_in_window = 0
        # Windows matter only to the budget controller.
        self._window_end = config.window if budget is not None else math.inf
        # Instruments resolved once — finish() runs per request.
        metrics = self.metrics
        self._c_started = metrics.counter("requests.started")
        self._c_completed = metrics.counter("requests.completed")
        self._c_failed = metrics.counter("requests.failed")
        self._c_dropped = metrics.counter("requests.dropped")
        self._c_retransmitted = metrics.counter("requests.retransmitted")
        self._c_tcp_retrans = metrics.counter("tcp.retransmissions")

    @property
    def retained(self) -> int:
        """Traces kept so far (base sample + promoted tail)."""
        return len(self.traces)

    @property
    def base_retained(self) -> int:
        """Traces kept by the base sample."""
        return len(self.traces) - self.promoted

    def begin_trace(self, request) -> ColumnarTrace:
        """Give ``request`` a working span tree; retention waits for finish."""
        trace = request.trace = ColumnarTrace(self.store, request.rid)
        self._c_started.inc()
        if self.bus is not None:
            self.bus.publish("request.started", request)
        return trace

    def dropped(self, request, tier: str) -> None:
        """One traced transmission attempt hit a full accept queue.

        Called by the client fetch loop for adopted requests only (the
        untraced ones run the null fast path), *before* the TCP backoff
        begins — so streaming consumers see drops and retransmission
        attempts as they happen, not one RTO later when the request
        finally completes or fails.
        """
        self._c_dropped.inc()
        if self.bus is not None:
            self.bus.publish("request.dropped", request)

    def finish(self, request) -> None:
        """Decide retention, then count the request and publish it."""
        if self.tail is None:
            self.store.adopt(request.trace)
        else:
            self._sample(request)
        if request.failed:
            self._c_failed.inc()
            topic = "request.failed"
        else:
            self._c_completed.inc()
            topic = "request.completed"
        if request.attempts > 1:
            self._c_retransmitted.inc()
            self._c_tcp_retrans.inc(request.attempts - 1)
        if self.bus is not None:
            self.bus.publish(topic, request)

    def _sample(self, request) -> None:
        """Keep a base-sampled or promoted trace, drop the rest."""
        now = request.t_done
        if now is not None and now >= self._window_end:
            self._retune(now)
        # Every finished request so far was either retained or discarded.
        finished_before = len(self.traces) + self.discarded
        self._finished_in_window += 1
        rt = request.response_time
        threshold = self.threshold
        promoted = request.failed or (
            rt is not None and threshold is not None and rt >= threshold
        )
        if promoted or finished_before % self.stride == 0:
            self.store.adopt(request.trace)
            if promoted:
                self.promoted += 1
        else:
            request.trace = None
            self.discarded += 1
        if rt is not None and not request.failed:
            tail = self.tail
            tail.observe(rt)
            if tail.count % self.config.min_promote_samples == 0:
                self.threshold = tail.quantile(self.config.promote_quantile)

    def _retune(self, now: float) -> None:
        """Window rollover: adapt the base stride to the budget."""
        if self._finished_in_window:
            self.stride = max(
                1,
                round(
                    self._finished_in_window
                    / self.config.trace_budget_per_window
                ),
            )
        self._finished_in_window = 0
        window = self.config.window
        # Skip empty windows in one step (no completions, no budget
        # evidence to retune on).
        periods = int((now - self._window_end) / window) + 1
        self._window_end += periods * window


#: Shared disabled-tracer singleton (the default everywhere).
NULL_TRACER = NullTracer()
