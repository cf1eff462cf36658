"""Tests for workload trace record/replay and monitoring overhead."""

import numpy as np
import pytest

from repro.cloud import CloudDeployment, DeploymentConfig, TierConfig
from repro.monitoring import UtilizationMonitor
from repro.ntier import Request
from repro.sim import ProcessorSharingServer, RandomStreams, Simulator
from repro.workload import (
    OpenLoopGenerator,
    TraceEntry,
    TraceReplayGenerator,
    exponential_request_factory,
    record_trace,
)


def single_tier_app(sim, concurrency=20):
    deployment = CloudDeployment(
        sim,
        DeploymentConfig(
            tiers=(TierConfig("db", vcpus=1, concurrency=concurrency),)
        ),
    )
    return deployment.app


def make_source_run(duration=20.0, rate=50.0, seed=9):
    sim = Simulator()
    app = single_tier_app(sim)
    streams = RandomStreams(seed)
    factory = exponential_request_factory(
        {"db": 0.004}, streams.get("demands")
    )
    OpenLoopGenerator(
        sim, app, factory, rate=rate, rng=streams.get("arrivals")
    ).start()
    sim.run(until=duration)
    return app


class TestRecordTrace:
    def test_entries_sorted_and_complete(self):
        app = make_source_run()
        trace = record_trace(app.completed)
        assert len(trace) == len(app.completed)
        times = [e.time for e in trace]
        assert times == sorted(times)

    def test_demands_copied_not_aliased(self):
        request = Request(rid=1, page="p", demands={"db": 0.1})
        request.t_first_attempt = 2.0
        (entry,) = record_trace([request])
        request.demands["db"] = 99.0
        assert entry.demands["db"] == 0.1


class TestReplay:
    def test_replay_reproduces_arrival_times(self):
        app = make_source_run(duration=10.0)
        trace = record_trace(app.completed)

        sim = Simulator()
        replica = single_tier_app(sim)
        replay = TraceReplayGenerator(sim, replica, trace)
        replay.start()
        replay.start()  # idempotent
        sim.run(until=30.0)
        assert replay.replayed == len(trace)
        assert replay.finished
        original = sorted(e.time - trace[0].time for e in trace)
        replayed = sorted(
            r.t_first_attempt for r in replica.completed
        )
        assert len(replayed) == len(original)
        assert replayed[0] == pytest.approx(original[0], abs=1e-9)
        assert replayed[-1] == pytest.approx(original[-1], abs=1e-9)

    def test_identical_demands_identical_service(self):
        """Replaying against an identical system reproduces RTs."""
        app = make_source_run(duration=8.0)
        trace = record_trace(app.completed)
        sim = Simulator()
        replica = single_tier_app(sim)
        TraceReplayGenerator(sim, replica, trace).start()
        sim.run(until=30.0)
        original = sorted(
            r.response_time for r in app.completed
        )
        replayed = sorted(
            r.response_time for r in replica.completed
        )
        assert np.allclose(original, replayed, rtol=1e-9)

    def test_offset_shifts_schedule(self):
        trace = [TraceEntry(time=100.0, page="p", demands={"db": 0.01})]
        sim = Simulator()
        replica = single_tier_app(sim)
        replay = TraceReplayGenerator(
            sim, replica, trace, time_offset=-95.0
        )
        replay.start()
        sim.run(until=20.0)
        assert replica.completed[0].t_first_attempt == pytest.approx(5.0)

    def test_empty_trace_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TraceReplayGenerator(sim, single_tier_app(sim), [])


class TestMonitoringOverhead:
    def test_agent_cost_appears_in_utilization(self):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=1)
        monitor = UtilizationMonitor(
            sim, cpu, interval=0.1, overhead_work=0.01
        )
        monitor.start()
        sim.run(until=20.0)
        # 10 ms of agent work per 100 ms sample: ~10% busy from the
        # agent alone, visible in its own measurements.
        assert monitor.series.mean() == pytest.approx(0.1, abs=0.02)
        assert monitor.nominal_overhead == pytest.approx(0.1)

    def test_zero_overhead_default(self):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=1)
        monitor = UtilizationMonitor(sim, cpu, interval=0.1)
        monitor.start()
        sim.run(until=5.0)
        assert monitor.series.max() == 0.0
        assert monitor.nominal_overhead == 0.0

    def test_negative_overhead_rejected(self):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=1)
        with pytest.raises(ValueError):
            UtilizationMonitor(sim, cpu, overhead_work=-1.0)
