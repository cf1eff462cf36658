"""Span tracer tests: tree well-formedness and non-perturbation.

The tentpole invariants (property-based, per ISSUE 1):

* every completed request's span tree is well-formed — spans nest,
  child intervals lie within their parents, siblings are contiguous;
* leaf span durations sum to the client-perceived response time;
* the disabled-tracer path leaves simulation results identical for a
  fixed seed (tracing is observation, never perturbation).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudDeployment, DeploymentConfig, TierConfig
from repro.obs import (
    NULL_TRACER,
    LiveTelemetry,
    P2Quantile,
    TelemetryConfig,
    Trace,
    Tracer,
)
from repro.experiments.runner import run_rubbos
from tests._golden import GOLDEN_FIG2
from repro.sim import RandomStreams, Simulator
from repro.workload import OpenLoopGenerator, exponential_request_factory

#: Slack for float comparisons on span arithmetic.
EPS = 1e-6


def three_tier_app(sim, backlog=4):
    """A small RPC chain whose front tier drops (so RTOs appear)."""
    deployment = CloudDeployment(
        sim,
        DeploymentConfig(
            tiers=(
                TierConfig(
                    "web", vcpus=1, concurrency=6, max_backlog=backlog
                ),
                TierConfig("appsrv", vcpus=1, concurrency=4),
                TierConfig("db", vcpus=1, concurrency=2),
            )
        ),
    )
    return deployment.app


def run_traced(seed, rate, duration=8.0, tandem=False, tracer=None):
    sim = Simulator()
    # Tandem mode has no drop/retransmission path, so it is only ever
    # used with unbounded tiers (as in the Fig 6/7 model runner).
    app = three_tier_app(sim, backlog=None if tandem else 4)
    if tracer is not None:
        app.tracer = tracer
    streams = RandomStreams(seed)
    factory = exponential_request_factory(
        {"web": 0.002, "appsrv": 0.004, "db": 0.008},
        streams.get("demands"),
    )
    OpenLoopGenerator(
        sim,
        app,
        factory,
        rate=rate,
        rng=streams.get("arrivals"),
        tandem=tandem,
    ).start()
    sim.run(until=duration)
    return app


def assert_well_formed(span):
    """Recursively check nesting, containment, and sibling order."""
    assert span.end is not None, f"unclosed span {span!r}"
    assert span.end >= span.start - EPS
    previous_end = span.start
    for child in span.children:
        assert child.start >= span.start - EPS
        assert child.end <= span.end + EPS
        # Siblings are ordered and non-overlapping.
        assert child.start >= previous_end - EPS
        previous_end = child.end
        assert_well_formed(child)


class TestSpanTreeProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=20.0, max_value=400.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_span_trees_well_formed(self, seed, rate):
        tracer = Tracer()
        app = run_traced(seed, rate, tracer=tracer)
        assert app.completed, "scenario produced no completed requests"
        for request in app.completed:
            trace = request.trace
            assert trace is not None and trace.finished
            root = trace.root
            assert root.kind == "request"
            assert root.start == pytest.approx(request.t_first_attempt)
            assert root.end == pytest.approx(request.t_done)
            assert_well_formed(root)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=20.0, max_value=400.0),
        tandem=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_leaf_durations_sum_to_response_time(
        self, seed, rate, tandem
    ):
        tracer = Tracer()
        app = run_traced(seed, rate, tandem=tandem, tracer=tracer)
        assert app.completed
        for request in app.completed:
            components = request.trace.leaf_durations()
            total = sum(components.values())
            assert total == pytest.approx(
                request.response_time, abs=1e-6
            ), f"rid {request.rid}: {components}"

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_disabled_tracer_is_identical(self, seed):
        """Same seed, tracing on vs off: identical measurements."""
        plain = run_traced(seed, rate=150.0)
        traced = run_traced(seed, rate=150.0, tracer=Tracer())
        assert len(plain.completed) == len(traced.completed)
        assert len(plain.failed) == len(traced.failed)
        for a, b in zip(plain.completed, traced.completed):
            assert a.t_first_attempt == b.t_first_attempt
            assert a.t_done == b.t_done
            assert a.attempts == b.attempts
            assert a.tier_spans == b.tier_spans
        assert all(r.trace is None for r in plain.completed)


class TestTracerBehaviour:
    def test_null_tracer_records_nothing(self):
        app = run_traced(3, rate=100.0, duration=2.0)
        assert app.tracer is NULL_TRACER
        assert all(r.trace is None for r in app.completed)

    def test_dropped_requests_have_drop_detail(self):
        tracer = Tracer()
        app = run_traced(5, rate=380.0, tracer=tracer)
        retried = [r for r in app.completed if r.attempts > 1]
        assert retried, "expected front-tier drops at this rate"
        for request in retried:
            assert len(request.drop_tiers) == request.attempts - 1
            assert set(request.drop_tiers) == {"web"}
            assert len(request.attempt_times) == request.attempts
            components = request.trace.leaf_durations()
            # Every retransmission shows up as rto_wait >= 1 s each.
            assert (
                components["rto_wait"]
                >= 1.0 * (request.attempts - 1) - EPS
            )

    def test_sampling_traces_subset(self):
        """``base_sample_every=3``: every 3rd finished request, plus
        every failed or promoted one, keeps its trace."""
        tracer = Tracer(
            TelemetryConfig(
                window=None, base_sample_every=3, trace_budget_per_window=None
            )
        )
        app = run_traced(7, rate=100.0, tracer=tracer)
        finished = sorted(app.completed + app.failed, key=lambda r: r.t_done)
        kept = [r for r in finished if r.trace is not None]
        assert 0 < len(kept) < len(finished)
        assert tracer.retained == len(kept) == len(tracer.store.traces)
        assert tracer.retained + tracer.discarded == len(finished)
        # Replay the rule: the running P99 arms after 100 completions.
        p99 = P2Quantile(0.99)
        promoted = 0
        for index, request in enumerate(finished):
            rt = request.response_time
            promote = request.failed or (
                p99.count >= 100 and rt >= p99.estimate
            )
            promoted += promote
            assert (request.trace is not None) == (
                index % 3 == 0 or promote
            )
            if not request.failed:
                p99.observe(rt)
        assert tracer.promoted == promoted > 0

    def test_full_tracing_keeps_every_finished_request(self):
        run = run_rubbos(
            replace(GOLDEN_FIG2, users=300, duration=4.0), tracing=True
        )
        tracer = run.obs.tracer
        finished = run.app.completed + run.app.failed
        assert len(tracer.store.traces) == len(finished)
        assert all(r.trace is not None for r in finished)
        assert tracer.discarded == 0
        # Keep-all builds neither an estimator nor a windowed pipeline.
        assert tracer.p2 is None
        assert run.obs.pipeline is None and run.obs.detector is None

    def test_tracer_metrics_fed_on_finish(self):
        tracer = Tracer()
        app = run_traced(11, rate=200.0, tracer=tracer)
        snapshot = tracer.metrics.snapshot()
        assert (
            snapshot["requests.completed"]["value"]
            == len(app.completed)
        )
        assert snapshot["response_time"]["count"] == len(app.completed)

    def test_trace_stack_misuse_raises(self):
        trace = Trace(rid=1)
        with pytest.raises(ValueError):
            trace.end(1.0)
        with pytest.raises(ValueError):
            trace.add("queue_wait", "x", 0.0, 1.0)
        trace.begin("request", "p", 0.0)
        trace.end(1.0)
        with pytest.raises(ValueError):
            trace.begin("request", "p", 2.0)


class TestObservabilityBundle:
    def test_attach_wires_tracer_and_kernel(self):
        sim = Simulator()
        app = three_tier_app(sim)
        obs = LiveTelemetry(TelemetryConfig(slo=0.5))
        obs.attach(sim, app)
        assert app.tracer is obs.tracer
        streams = RandomStreams(2)
        factory = exponential_request_factory(
            {"web": 0.001, "appsrv": 0.002, "db": 0.004},
            streams.get("demands"),
        )
        OpenLoopGenerator(
            sim, app, factory, rate=80.0, rng=streams.get("arrivals")
        ).start()
        sim.run(until=4.0)
        obs.finalize(4.0)
        report = obs.report()
        assert report["kernel"]["events_dispatched"] > 0
        assert report["traces"]["retained"] == len(obs.tracer.traces) > 0
        metrics = report["metrics"]
        assert metrics["requests.completed"]["value"] == len(app.completed)
        assert metrics["response_time"]["count"] == len(app.completed)
        assert report["windows"] == 4
        assert report["slo"] == {"violations": 0, "onsets": 0}

    def test_windowless_config_rejects_slo(self):
        with pytest.raises(ValueError):
            TelemetryConfig(window=None, slo=0.5)
        # The SLO alone is rejected, not only the default budget.
        with pytest.raises(ValueError):
            TelemetryConfig(
                window=None, slo=0.5, trace_budget_per_window=None
            )
        with pytest.raises(ValueError):
            TelemetryConfig(window=None, trace_budget_per_window=4)
