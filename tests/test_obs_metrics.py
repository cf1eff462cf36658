"""Metrics registry, event bus, and kernel profiler tests."""

import pytest

from repro.obs import (
    Counter,
    EventBus,
    Gauge,
    KernelProfiler,
    MetricsRegistry,
)
from repro.sim import SimulationError, Simulator


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("hits")
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert c.snapshot() == {"type": "counter", "value": 4}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("hits").inc(-1)

    def test_gauge_watermarks(self):
        g = Gauge("depth")
        assert g.snapshot()["value"] is None
        for v in (3.0, -1.0, 7.0, 2.0):
            g.set(v)
        snap = g.snapshot()
        assert snap["value"] == 2.0
        assert snap["min"] == -1.0
        assert snap["max"] == 7.0
        assert snap["updates"] == 4


class TestMetricsRegistry:
    def test_created_on_first_use_and_memoised(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        assert reg.counter("a") is c
        assert "a" in reg and reg["a"] is c

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_covers_all(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        snap = reg.snapshot()
        assert set(snap) == {"c", "g"}
        assert snap["c"]["value"] == 2
        assert snap["g"]["value"] == 1.5


class TestEventBus:
    def test_publish_reaches_subscribers(self):
        bus = EventBus()
        got = []
        bus.subscribe("t", got.append)
        assert bus.publish("t", 1) == 1
        assert bus.publish("other", 2) == 0
        assert got == [1]
        assert bus.published == {"t": 1, "other": 1}

    def test_unsubscribe(self):
        bus = EventBus()
        got = []
        off = bus.subscribe("t", got.append)
        off()
        off()  # idempotent
        assert bus.publish("t", 1) == 0
        assert got == []


class TestKernelProfiler:
    def run_profiled(self, sample_every=4):
        sim = Simulator()
        profiler = KernelProfiler(sample_every=sample_every)
        sim.attach_hooks(profiler)

        def ticker():
            for _ in range(20):
                yield 0.5

        sim.process(ticker())
        sim.process(ticker())
        sim.run(until=10.0)
        return sim, profiler

    def test_counts_events_and_processes(self):
        _sim, profiler = self.run_profiled()
        assert profiler.events_dispatched >= 40
        assert profiler.processes_started == 2
        assert profiler.peak_heap_depth >= 1
        assert 0.0 < profiler.mean_heap_depth <= profiler.peak_heap_depth

    def test_wall_time_series_and_summary(self):
        _sim, profiler = self.run_profiled(sample_every=4)
        series = profiler.wall_time_per_sim_second()
        assert len(series) > 0
        assert all(v >= 0.0 for v in series.values)
        summary = profiler.summary()
        assert summary["events_dispatched"] == profiler.events_dispatched
        assert summary["wall_seconds"] >= 0.0
        assert "wall_per_sim_second" in summary

    def test_checkpoints_continue_across_runs(self):
        # Each Simulator.run ends with a remainder flush (1,001 events
        # = 15 x 64 + 41 here); checkpoints must keep coming in the
        # next run instead of freezing at the first run's last one.
        sim = Simulator()
        profiler = KernelProfiler(sample_every=64)
        sim.attach_hooks(profiler)

        def ticker():
            while True:
                yield 0.001

        sim.process(ticker())
        sim.run(until=1.0005)
        assert profiler.events_dispatched == 1001
        assert len(profiler.checkpoints) == 1 + 1001 // 64
        sim.run(until=3.0)
        assert profiler.events_dispatched == 3001
        # One checkpoint per 64 events dispatched since the last one.
        assert len(profiler.checkpoints) == 1 + 15 + (41 + 2000) // 64
        assert profiler.checkpoints[-1][0] > 2.9
        times = [t for t, _wall in profiler.checkpoints]
        assert times == sorted(times)

    def test_summary_mirrors_into_registry(self):
        reg = MetricsRegistry()
        sim = Simulator()
        profiler = KernelProfiler(metrics=reg)
        sim.attach_hooks(profiler)

        def one_tick():
            yield 1.0

        sim.process(one_tick())
        sim.run(until=2.0)
        profiler.summary()
        assert (
            reg.counter("kernel.events_dispatched").value
            == profiler.events_dispatched
        )

    def test_hook_slot_is_exclusive(self):
        sim = Simulator()
        sim.attach_hooks(KernelProfiler())
        with pytest.raises(SimulationError):
            sim.attach_hooks(KernelProfiler())
