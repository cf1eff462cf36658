"""Observability: request tracing, metrics, and kernel self-profiling.

The subsystem has three legs (see DESIGN.md "Observability"):

* **Span tracing** (:mod:`repro.obs.span`, :mod:`repro.obs.columnar`,
  :mod:`repro.obs.tracer`) — each client request carries a typed span
  tree recording where its latency accrued: TCP retransmission waits,
  per-tier queue waits, processor-sharing service slices (with
  effective-speed annotations), and inter-tier network hops.  The
  tracer decides at finish which trees to keep.
* **Metrics + event bus + streaming tails** (:mod:`repro.obs.metrics`,
  :mod:`repro.obs.bus`, :mod:`repro.obs.sketch`,
  :mod:`repro.obs.streaming`) — counters/gauges, a pub/sub fabric for
  request lifecycle events, log-bucketed windowed tail quantiles and
  the tail-SLO detector.
* **Kernel self-profiling** (:class:`~repro.obs.bus.KernelProfiler`)
  — events dispatched, heap depth, wall-time per sim-second via the
  simulator's hook slot.

:class:`LiveTelemetry` bundles all three, configured by one
:class:`TelemetryConfig`, and wires them into a run:
``repro.experiments.runner.run_rubbos(..., tracing=True)`` attaches it
with :data:`FULL_TRACING` (every finished request keeps its trace),
``tracing=TelemetryConfig(...)`` with that config, and ``python -m
repro trace|monitor <scenario>`` expose it from the shell.  Everything
is off by default and adds only null-check overhead when disabled.
"""

from __future__ import annotations

from .bus import EventBus, KernelProfiler
from .columnar import ColumnarTrace, SpanStore
from .metrics import Counter, Gauge, MetricsRegistry
from .sketch import LogHistogram
from .span import LEAF_KINDS, SPAN_KINDS, Span
from .streaming import (
    LiveTelemetry,
    TailSloDetector,
    TelemetryPipeline,
    WindowReport,
)
from .tracer import (
    FULL_TRACING,
    NULL_TRACER,
    NullTracer,
    TelemetryConfig,
    Tracer,
)

__all__ = [
    "ColumnarTrace",
    "Counter",
    "EventBus",
    "FULL_TRACING",
    "Gauge",
    "KernelProfiler",
    "LEAF_KINDS",
    "LiveTelemetry",
    "LogHistogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SPAN_KINDS",
    "Span",
    "SpanStore",
    "TailSloDetector",
    "TelemetryConfig",
    "TelemetryPipeline",
    "Tracer",
    "WindowReport",
]
