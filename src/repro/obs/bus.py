"""Kernel event bus and DES self-profiling.

:class:`EventBus` is an in-process publish/subscribe fabric: any
component can ``publish(topic, payload)`` and any number of listeners
receive it synchronously.  The tracer publishes request lifecycle
topics (``request.started`` / ``request.dropped`` /
``request.completed`` / ``request.failed``); consumers — the streaming
telemetry pipeline (:mod:`repro.obs.streaming`), the latency-triggered
defense (``slo.violation`` / ``millibottleneck.onset``), exporters —
subscribe without the emitting code knowing about them.

:class:`KernelProfiler` plugs into the :class:`~repro.sim.core.Simulator`
hook slot (see ``Simulator.attach_hooks``) and measures the simulator
itself: events dispatched, process spawns, heap depth watermarks, and
wall-clock time per simulated second — the numbers that tell us whether
the kernel, not the model, is the bottleneck as scenarios scale.
"""

from __future__ import annotations

import logging
import time as _time
from typing import Any, Callable, Dict, List, Optional

from ..monitoring.metrics import TimeSeries
from .metrics import MetricsRegistry

__all__ = ["EventBus", "KernelProfiler"]

_log = logging.getLogger(__name__)


class EventBus:
    """Synchronous topic-based publish/subscribe.

    Publishers run inside the simulation kernel (the tracer publishes
    from the request hot path), so delivery is *isolated*: a subscriber
    that raises is logged and skipped instead of unwinding the client
    coroutine that happened to publish, and the failure is tallied in
    :attr:`delivery_errors`.  Subscribers may unsubscribe anyone —
    including themselves — during a publish; delivery for the publish
    in flight uses a snapshot of the subscription list.

    A topic ending in ``.*`` subscribes to the whole *family*: a
    ``"net.*"`` subscriber receives every ``net.delivered`` /
    ``net.dropped`` / ``net.failed`` publish.  (Before the network
    family landed, such a subscription silently registered a literal
    topic that nothing ever published to.)  Patterns match on the
    dotted prefix only — ``"net.*"`` does not match a bare ``"net"``.
    """

    def __init__(self):
        self._subscribers: Dict[str, List[Callable[[Any], None]]] = {}
        #: dotted prefix (e.g. "net.") -> family subscribers.
        self._patterns: Dict[str, List[Callable[[Any], None]]] = {}
        self.published: Dict[str, int] = {}
        #: topic -> count of subscriber callbacks that raised.
        self.delivery_errors: Dict[str, int] = {}

    def subscribe(
        self, topic: str, fn: Callable[[Any], None]
    ) -> Callable[[], None]:
        """Register ``fn`` for ``topic``; returns an unsubscribe callable.

        ``topic`` may be a family pattern like ``"net.*"``.
        """
        if topic.endswith(".*"):
            registry, key = self._patterns, topic[:-1]
        else:
            registry, key = self._subscribers, topic
        registry.setdefault(key, []).append(fn)

        def unsubscribe() -> None:
            try:
                registry[key].remove(fn)
            except (KeyError, ValueError):
                pass

        return unsubscribe

    def _listeners_for(self, topic: str) -> List[Callable[[Any], None]]:
        """Snapshot of every callback a publish to ``topic`` reaches."""
        listeners = list(self._subscribers.get(topic, ()))
        if self._patterns:
            for prefix, fns in self._patterns.items():
                if topic.startswith(prefix):
                    listeners.extend(fns)
        return listeners

    def publish(self, topic: str, payload: Any = None) -> int:
        """Deliver ``payload`` to every subscriber.

        Returns the number of *successful* deliveries.  A subscriber
        exception is logged and counted, never propagated: the bus sits
        between the kernel's instrumentation sites and arbitrary
        consumer code, and a broken consumer must not kill the
        simulation it is observing.
        """
        published = self.published
        published[topic] = published.get(topic, 0) + 1
        if not self._patterns and not self._subscribers.get(topic):
            # Nobody listens (keep-all tracing publishes every request
            # lifecycle topic to an empty bus): skip the snapshot.
            return 0
        # Snapshot: subscribe/unsubscribe during delivery affects the
        # next publish, not the one in flight.
        listeners = self._listeners_for(topic)
        if not listeners:
            return 0
        delivered = 0
        for fn in listeners:
            try:
                fn(payload)
                delivered += 1
            except Exception:
                self.delivery_errors[topic] = (
                    self.delivery_errors.get(topic, 0) + 1
                )
                _log.exception(
                    "subscriber %r failed on topic %r", fn, topic
                )
        return delivered


class KernelProfiler:
    """Simulator self-profiling via the kernel hook slot.

    Implements the batched hook protocol the simulator expects:
    ``on_events(count, now, heap_len)`` once every ``event_stride``
    dispatched events (plus a final remainder flush when ``run``
    returns, so :attr:`events_dispatched` is exact) and
    ``on_process(process)`` at each process spawn.  Heap-depth
    statistics are *sampled* at the stride cadence; cumulative event
    and process counts are exact.  The stride keeps the per-event cost
    inside the dispatch loop to a couple of integer operations.
    """

    def __init__(
        self,
        sample_every: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1: {sample_every}")
        self.sample_every = int(sample_every)
        self.metrics = metrics
        self.events_dispatched = 0
        self.processes_started = 0
        self.peak_heap_depth = 0
        self._heap_depth_sum = 0
        #: Events dispatched since the last checkpoint.
        self._since_checkpoint = 0
        #: (sim time, cumulative wall seconds) checkpoints.
        self.checkpoints: List[tuple] = []
        self._wall_start: Optional[float] = None

    # -- simulator hook protocol ----------------------------------------

    @property
    def event_stride(self) -> int:
        """How often the dispatch loop calls :meth:`on_events`."""
        return self.sample_every

    def on_attach(self, sim) -> None:
        self._wall_start = _time.perf_counter()
        self.checkpoints.append((sim.now, 0.0))

    def on_events(self, count: int, now: float, heap_len: int) -> None:
        self.events_dispatched += count
        self._heap_depth_sum += heap_len * count
        if heap_len > self.peak_heap_depth:
            self.peak_heap_depth = heap_len
        # Counted since the last checkpoint, not as a multiple of the
        # cumulative total: the remainder flush at the end of each
        # Simulator.run would otherwise misalign the total for good.
        self._since_checkpoint += count
        if self._since_checkpoint >= self.sample_every:
            self._since_checkpoint = 0
            wall = _time.perf_counter() - self._wall_start
            self.checkpoints.append((now, wall))

    def on_process(self, process) -> None:
        self.processes_started += 1

    # -- derived views ---------------------------------------------------

    @property
    def mean_heap_depth(self) -> float:
        if self.events_dispatched == 0:
            return 0.0
        return self._heap_depth_sum / self.events_dispatched

    def wall_time_per_sim_second(self) -> TimeSeries:
        """Wall seconds burned per simulated second, over sim time.

        Zero-width sim intervals (many events at one instant) are
        folded into the next advancing interval.
        """
        out = TimeSeries("wall-per-sim-second")
        pending_wall = 0.0
        for (t0, w0), (t1, w1) in zip(
            self.checkpoints, self.checkpoints[1:]
        ):
            pending_wall += w1 - w0
            if t1 > t0:
                out.append(t1, pending_wall / (t1 - t0))
                pending_wall = 0.0
        return out

    def summary(self) -> dict:
        """Kernel health numbers, also mirrored into the registry."""
        wall = 0.0
        if self._wall_start is not None:
            wall = _time.perf_counter() - self._wall_start
        out = {
            "events_dispatched": self.events_dispatched,
            "processes_started": self.processes_started,
            "peak_heap_depth": self.peak_heap_depth,
            "mean_heap_depth": self.mean_heap_depth,
            "wall_seconds": wall,
        }
        if self.checkpoints:
            sim_elapsed = self.checkpoints[-1][0] - self.checkpoints[0][0]
            if sim_elapsed > 0:
                out["wall_per_sim_second"] = (
                    self.checkpoints[-1][1] / sim_elapsed
                )
        if self.metrics is not None:
            self.metrics.counter("kernel.events_dispatched").value = (
                self.events_dispatched
            )
            self.metrics.counter("kernel.processes_started").value = (
                self.processes_started
            )
            self.metrics.gauge("kernel.peak_heap_depth").set(
                self.peak_heap_depth
            )
        return out
