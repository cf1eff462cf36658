"""Metrics registry, event bus, and kernel profiler tests.

The batched reservoir fold is checked against the per-observation
sketch it replaced (``tests/_reference_histogram.py``), bit for bit.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Counter,
    EventBus,
    Gauge,
    KernelProfiler,
    MetricsRegistry,
    StreamingHistogram,
)
from repro.sim import SimulationError, Simulator
from tests._reference_histogram import (
    StreamingHistogram as ReferenceHistogram,
)
from tests.conftest import max_examples


def bits(value: float) -> bytes:
    """A float's exact bytes: -0.0 and each NaN compare as themselves."""
    return struct.pack("<d", value)


def assert_same_sketch(batched, reference):
    """Count, sum, min, max, reservoir and percentiles, bit for bit."""
    assert batched.count == reference.count
    assert bits(batched.total) == bits(reference.total)
    assert bits(batched.low) == bits(reference.low)
    assert bits(batched.high) == bits(reference.high)
    kept = min(reference.count, reference.capacity)
    assert (
        batched._buf[:kept].tobytes() == reference._buf[:kept].tobytes()
    )
    if reference.count:
        qs = [0.0, 1.0, 50.0, 99.0, 99.9, 100.0]
        with np.errstate(invalid="ignore"):
            got = batched.percentile(qs)
            want = reference.percentile(qs)
        assert list(map(bits, got)) == list(map(bits, want))
        assert bits(batched.mean) == bits(reference.mean)
    # Both generators sit at the same point of their stream.
    assert (
        batched._rng.bit_generator.state
        == reference._rng.bit_generator.state
    )


#: One step of a stream: an observation, or a read mid-stream.
_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    st.integers(-(2**53), 2**53),
)
_stream = st.lists(
    st.one_of(_values, st.just("read")), max_size=400
)


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


class TestStreamingHistogram:
    def test_exact_below_capacity(self):
        h = StreamingHistogram(capacity=100)
        for v in range(10):
            h.observe(float(v))
        assert h.count == 10
        assert h.mean == pytest.approx(4.5)
        assert h.low == 0.0 and h.high == 9.0
        assert h.percentile(50.0) == pytest.approx(4.5)
        assert h.percentile([0.0, 100.0]) == [0.0, 9.0]

    def test_reservoir_stays_representative(self):
        # 40k uniform draws into a 2k reservoir: quartiles should land
        # near the true ones.  Deterministic: seeded RNG on both sides.
        rng = np.random.default_rng(42)
        h = StreamingHistogram(capacity=2048, seed=7)
        for v in rng.uniform(0.0, 100.0, size=40_000):
            h.observe(float(v))
        assert h.count == 40_000
        p25, p50, p75 = h.percentile([25.0, 50.0, 75.0])
        assert p25 == pytest.approx(25.0, abs=3.0)
        assert p50 == pytest.approx(50.0, abs=3.0)
        assert p75 == pytest.approx(75.0, abs=3.0)

    def test_snapshot_fields(self):
        h = StreamingHistogram(capacity=8)
        snap = h.snapshot()
        assert snap["count"] == 0 and "mean" not in snap
        h.observe(2.0)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["p50"] == 2.0

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            StreamingHistogram().percentile(50.0)


class TestBatchedFold:
    """The batched fold equals the per-observation reference sketch."""

    @given(
        capacity=st.one_of(st.integers(1, 16), st.integers(17, 512)),
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 64),
        stream=_stream,
    )
    @settings(max_examples=max_examples(200), deadline=None)
    def test_equals_per_observation_sketch(
        self, capacity, seed, batch, stream
    ):
        batched = StreamingHistogram(capacity, seed)
        # A small batch puts folds inside short streams too.
        batched.BATCH = batch
        reference = ReferenceHistogram(capacity, seed)
        for step in stream:
            if step == "read":
                assert_same_sketch(batched, reference)
            else:
                batched.observe(step)
                reference.observe(step)
        assert_same_sketch(batched, reference)

    @pytest.mark.parametrize("capacity", [1, 100, 4096])
    def test_equals_reference_at_full_batch(self, capacity):
        # Streams past several default-size batches, with reads
        # falling inside batches.
        values = np.random.default_rng(5).lognormal(size=20_000).tolist()
        batched = StreamingHistogram(capacity, seed=3)
        reference = ReferenceHistogram(capacity, seed=3)
        for i, value in enumerate(values):
            batched.observe(value)
            reference.observe(value)
            if i in (0, 4095, 4096, 9000):
                assert_same_sketch(batched, reference)
        assert_same_sketch(batched, reference)
        assert batched.snapshot() == reference.snapshot()


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
        reg.histogram("h").observe(3.0)
        snap = reg.snapshot()
        assert set(snap) == {"c", "g", "h"}
        assert snap["c"]["value"] == 2
        assert snap["h"]["count"] == 1


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
