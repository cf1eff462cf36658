"""Tests for the observability stack's streaming side: retention,
windowed sketches, and tail alarms (repro.obs.tracer/streaming/sketch)."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.configs import PRIVATE_CLOUD
from repro.experiments.runner import run_rubbos
from repro.obs import (
    EventBus,
    LogHistogram,
    TailSloDetector,
    TelemetryConfig,
    TelemetryPipeline,
    Tracer,
    WindowReport,
)
from repro.obs.streaming import E2E
from tests._golden import GOLDEN_FIG2


class FakeRequest:
    """The attribute surface the tracer and pipeline consume."""

    def __init__(
        self,
        rid,
        t_done=None,
        response_time=None,
        failed=False,
        attempts=1,
        tiers=None,
    ):
        self.rid = rid
        self.t_done = t_done
        self.response_time = response_time
        self.failed = failed
        self.attempts = attempts
        self.trace = None
        self._tiers = tiers or {}

    def tier_response_time(self, tier):
        return self._tiers.get(tier)


class TestLogHistogram:
    def test_guaranteed_relative_accuracy(self):
        rng = np.random.default_rng(11)
        values = rng.lognormal(mean=-2.0, sigma=1.0, size=50000)
        hist = LogHistogram(relative_accuracy=0.01)
        for v in values:
            hist.observe(float(v))
        for q in (50.0, 90.0, 99.0, 99.9):
            exact = float(np.percentile(values, q))
            # Bucketing guarantees 1% on the value; the quantile
            # boundary itself adds sampling granularity at the tail.
            assert hist.quantile(q) == pytest.approx(exact, rel=0.03)

    def test_extremes_are_exact_watermarks(self):
        hist = LogHistogram()
        for v in (0.2, 5.0, 1.0):
            hist.observe(v)
        assert hist.quantile(0.0) == 0.2
        assert hist.quantile(100.0) == 5.0

    def test_merge_equals_combined(self):
        rng = np.random.default_rng(3)
        a_vals = rng.exponential(1.0, 5000)
        b_vals = rng.exponential(2.0, 5000)
        a, b, both = LogHistogram(), LogHistogram(), LogHistogram()
        for v in a_vals:
            a.observe(float(v))
            both.observe(float(v))
        for v in b_vals:
            b.observe(float(v))
            both.observe(float(v))
        a.merge(b)
        assert a.count == both.count
        for q in (50.0, 99.0):
            assert a.quantile(q) == pytest.approx(both.quantile(q))

    def test_tiny_values_fold_into_zero_bucket(self):
        hist = LogHistogram(min_value=1e-3)
        hist.observe(1e-9)
        hist.observe(0.0)
        assert hist.count == 2
        assert hist.quantile(50.0) <= 1e-3

    def test_snapshot_shape(self):
        hist = LogHistogram()
        for v in (0.1, 0.2, 0.3):
            hist.observe(v)
        snap = hist.snapshot((50.0, 99.0))
        assert snap["count"] == 3
        assert "p50" in snap and "p99" in snap


class TestTelemetryConfig:
    def test_defaults_valid(self):
        config = TelemetryConfig()
        assert config.window == 1.0
        assert config.base_sample_every == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0.0},
            {"base_sample_every": 0},
            {"trace_budget_per_window": 0},
            {"slo": 0.5, "slo_quantile": 77.0},
            {"slo": 0.5, "baseline_windows": 0},
            {"accuracy": 0.0},
            {"accuracy": 1.0},
            {"quantiles": (50.0, 150.0)},
            {"quantiles": (-1.0, 99.0)},
            {"min_promote_samples": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TelemetryConfig(**kwargs)


class TestTracerRetention:
    def _tracer(self, **kwargs):
        config = TelemetryConfig(**kwargs)
        return Tracer(config, bus=EventBus())

    def _finish(self, tracer, rid, t_done, rt, failed=False):
        request = FakeRequest(
            rid, t_done=t_done, response_time=rt, failed=failed
        )
        tracer.begin_trace(request)
        tracer.finish(request)
        return request

    def test_every_request_adopted_and_started_published(self):
        tracer = self._tracer()
        started = []
        tracer.bus.subscribe("request.started", started.append)
        request = FakeRequest(1)
        tracer.begin_trace(request)
        assert request.trace is not None
        assert started == [request]

    def test_base_sample_follows_pinned_stride(self):
        tracer = self._tracer(
            base_sample_every=4, trace_budget_per_window=None
        )
        for i in range(8):
            self._finish(tracer, i, t_done=0.1 + i * 0.01, rt=0.01)
        assert tracer.base_retained == 2
        assert tracer.promoted == 0
        assert tracer.discarded == 6

    def test_discarded_requests_leave_no_trace(self):
        tracer = self._tracer(
            base_sample_every=100, trace_budget_per_window=None
        )
        kept = self._finish(tracer, 0, t_done=0.1, rt=0.01)
        dropped = self._finish(tracer, 1, t_done=0.2, rt=0.01)
        assert kept.trace is not None
        assert dropped.trace is None
        assert len(tracer.traces) == 1
        assert len(tracer.store.traces) == 1

    def test_slow_request_promoted_above_streaming_p99(self):
        tracer = self._tracer(
            base_sample_every=1000,
            trace_budget_per_window=None,
            min_promote_samples=50,
        )
        # Descending response times keep the running P99 above every
        # later completion, so nothing promotes during warm-up.
        for i in range(100):
            self._finish(
                tracer, i, t_done=0.001 * i, rt=0.2 - 0.001 * i
            )
        assert tracer.threshold is not None
        slow = self._finish(tracer, 999, t_done=0.5, rt=5.0)
        assert slow.trace is not None
        assert tracer.promoted == 1

    def test_failed_request_always_promoted(self):
        tracer = self._tracer(
            base_sample_every=1000, trace_budget_per_window=None
        )
        self._finish(tracer, 0, t_done=0.1, rt=0.01)  # base (1st)
        failed = self._finish(
            tracer, 1, t_done=0.2, rt=None, failed=True
        )
        assert failed.trace is not None
        assert tracer.promoted == 1

    def test_stride_retunes_to_budget_at_window_boundary(self):
        tracer = self._tracer(window=1.0, trace_budget_per_window=2)
        assert tracer.stride == 64
        for i in range(20):
            self._finish(tracer, i, t_done=0.04 * i, rt=0.01)
        # First completion past the boundary triggers the retune.
        self._finish(tracer, 20, t_done=1.1, rt=0.01)
        assert tracer.stride == round(20 / 2)

    def test_threshold_unarmed_until_min_samples(self):
        tracer = self._tracer(min_promote_samples=10)
        for i in range(9):
            self._finish(tracer, i, t_done=0.001 * i, rt=0.01)
        assert tracer.threshold is None


class TestTelemetryPipeline:
    def _pipeline(self, **kwargs):
        config = TelemetryConfig(**kwargs)
        pipeline = TelemetryPipeline(config, bus=EventBus())
        pipeline.tier_names = ("apache",)
        pipeline._attached = True
        pipeline.bus.subscribe(
            "request.completed", pipeline._on_completed
        )
        pipeline.bus.subscribe("request.failed", pipeline._on_failed)
        pipeline.bus.subscribe("request.dropped", pipeline._on_dropped)
        return pipeline

    def _complete(self, pipeline, t_done, rt, tiers=None):
        pipeline.bus.publish(
            "request.completed",
            FakeRequest(
                0, t_done=t_done, response_time=rt, tiers=tiers
            ),
        )

    def test_windows_close_lazily_and_flush(self):
        pipeline = self._pipeline(window=1.0)
        self._complete(pipeline, 0.5, 0.1)
        assert pipeline.reports == []
        self._complete(pipeline, 2.5, 0.2)  # closes windows 0 and 1
        assert [r.index for r in pipeline.reports] == [0, 1]
        pipeline.flush(3.0)
        assert [r.index for r in pipeline.reports] == [0, 1, 2]
        assert pipeline.reports[0].completed == 1
        assert pipeline.reports[1].completed == 0
        assert pipeline.reports[1].quantiles == {}

    def test_per_tier_and_e2e_sketches(self):
        pipeline = self._pipeline(window=1.0)
        self._complete(pipeline, 0.2, 0.4, tiers={"apache": 0.3})
        pipeline.flush(1.0)
        report = pipeline.reports[0]
        assert report.quantile(50.0, E2E) == pytest.approx(0.4, rel=0.02)
        assert report.quantile(50.0, "apache") == pytest.approx(
            0.3, rel=0.02
        )

    def test_cumulative_estimate_spans_windows(self):
        pipeline = self._pipeline(window=1.0)
        for i in range(50):
            self._complete(pipeline, 0.01 * i, 0.1)
        for i in range(50):
            self._complete(pipeline, 1.0 + 0.01 * i, 0.3)
        pipeline.flush(2.0)
        assert pipeline.estimate(99.0) == pytest.approx(0.3, rel=0.02)
        series = pipeline.series(99.0)
        assert [t for t, _ in series] == [1.0, 2.0]

    def test_drops_and_failures_tallied(self):
        pipeline = self._pipeline(window=1.0)
        pipeline.bus.publish("request.dropped", FakeRequest(0))
        pipeline.bus.publish(
            "request.failed", FakeRequest(1, t_done=0.5, failed=True)
        )
        pipeline.flush(1.0)
        report = pipeline.reports[0]
        assert report.dropped == 1
        assert report.failed == 1

    def test_window_callbacks_invoked(self):
        pipeline = self._pipeline(window=1.0)
        seen = []
        pipeline.on_window.append(seen.append)
        self._complete(pipeline, 0.5, 0.1)
        pipeline.flush(2.0)
        assert [r.index for r in seen] == [0, 1]


def _report(index, value, window=1.0):
    return WindowReport(
        index=index,
        start=index * window,
        end=(index + 1) * window,
        completed=10,
        quantiles={E2E: {50.0: value / 2, 99.0: value, 99.9: value}},
        samples={E2E: 10},
    )


class TestTailSloDetector:
    def test_violation_needs_consecutive_windows(self):
        config = TelemetryConfig(slo=1.0, consecutive_windows=2)
        bus = EventBus()
        events = []
        bus.subscribe("slo.violation", events.append)
        detector = TailSloDetector(config, bus)
        detector.on_window(_report(0, 2.0))
        assert events == []  # streak of one: not yet
        detector.on_window(_report(1, 2.0))
        assert len(events) == 1
        assert events[0]["time"] == 2.0
        assert events[0]["streak"] == 2
        detector.on_window(_report(2, 0.1))  # streak resets
        detector.on_window(_report(3, 2.0))
        assert len(events) == 1
        assert detector.violations == [(2.0, 2.0)]

    def test_onset_on_tail_jump_with_cooldown(self):
        config = TelemetryConfig(
            slo=100.0,  # violations out of the way
            baseline_windows=4,
            onset_factor=3.0,
            onset_cooldown=10.0,
        )
        bus = EventBus()
        onsets = []
        bus.subscribe("millibottleneck.onset", onsets.append)
        detector = TailSloDetector(config, bus)
        for i in range(4):
            detector.on_window(_report(i, 0.1))
        detector.on_window(_report(4, 1.0))  # 10x the baseline
        assert len(onsets) == 1
        assert onsets[0]["baseline"] == pytest.approx(0.1)
        detector.on_window(_report(5, 1.0))  # inside the cooldown
        assert len(onsets) == 1

    def test_requires_slo(self):
        with pytest.raises(ValueError):
            TailSloDetector(TelemetryConfig(), EventBus())


class TestLiveTelemetryIntegration:
    @pytest.fixture(scope="class")
    def run(self):
        scenario = replace(
            GOLDEN_FIG2, name="telemetry-smoke", users=400, duration=6.0
        )
        return run_rubbos(scenario, tracing=TelemetryConfig(slo=0.5))

    @pytest.fixture(
        scope="class",
        params=["quick", pytest.param("full", marks=pytest.mark.perf)],
    )
    def pinned_run(self, request):
        """fig9 with the base stride pinned at 1/64 (no budget control).

        Quick: 2,000 users x 10 s; full (``pytest --perf``): the
        private-cloud scenario's 60 s.  Answers whether promotion alone
        rescues the top-0.1% tail from a 1.6% base sample.
        """
        scenario = replace(PRIVATE_CLOUD, warmup=0.0)
        if request.param == "quick":
            scenario = replace(scenario, users=2000, duration=10.0)
        config = TelemetryConfig(trace_budget_per_window=None)
        return run_rubbos(scenario, tracing=config)

    def test_windows_cover_the_run(self, run):
        reports = run.obs.pipeline.reports
        assert len(reports) == 6
        assert reports[-1].end == 6.0

    def test_streaming_matches_exact_percentiles(self, run):
        rts = np.array(
            [r.response_time for r in run.app.completed], dtype=float
        )
        pipeline = run.obs.pipeline
        assert pipeline.cumulative[E2E].count == len(rts)
        for q in (50.0, 99.0):
            exact = float(np.percentile(rts, q))
            assert pipeline.estimate(q) == pytest.approx(exact, rel=0.05)

    def test_streaming_tail_within_5pct(self, pinned_run):
        rts = np.array(
            [r.response_time for r in pinned_run.app.completed], dtype=float
        )
        for q in (99.0, 99.9):
            exact = float(np.percentile(rts, q))
            assert pinned_run.obs.pipeline.estimate(q) == pytest.approx(
                exact, rel=0.05
            )

    def test_pinned_stride_retains_the_tail(self, pinned_run):
        assert pinned_run.obs.tracer.stride == 64
        completed = pinned_run.app.completed
        p999 = float(np.percentile([r.response_time for r in completed], 99.9))
        tail = [r for r in completed if r.response_time >= p999]
        retained = sum(1 for r in tail if r.trace is not None)
        assert tail and retained / len(tail) >= 0.99

    def test_retention_accounting_balances(self, run):
        tracer = run.obs.tracer
        finished = len(run.app.completed) + len(run.app.failed)
        started = tracer.metrics.counter("requests.started").value
        in_flight = started - finished
        assert tracer.retained + tracer.discarded == finished
        assert len(tracer.traces) == tracer.retained
        assert in_flight >= 0

    def test_tail_requests_keep_their_traces(self, run):
        rts = [r.response_time for r in run.app.completed]
        p999 = float(np.percentile(rts, 99.9))
        tail = [
            r for r in run.app.completed if r.response_time >= p999
        ]
        assert tail
        assert all(r.trace is not None for r in tail)

    def test_report_is_json_serializable(self, run):
        report = run.obs.report()
        assert report["windows"] == 6
        assert json.dumps(report)
