"""Property-based tests (hypothesis) on core invariants."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import percentile_curve
from repro.model import (
    AttackBurst,
    ModelError,
    SystemModel,
    TierModel,
    analyze,
    mm1_mean_rt,
)
from repro.monitoring import TimeSeries
from repro.core import ScalarKalmanFilter
from repro.analysis.attribution import component_breakdown
from repro.ntier import Request, RetransmissionPolicy, fetch
from repro.obs.tracer import NULL_TRACER
from repro.sim import (
    ProcessorSharingServer,
    RandomStreams,
    Resource,
    Simulator,
)
from tests._reference_queues import timeouts
from tests.conftest import max_examples


class TestEventOrderingProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e4,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_timeouts_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.call_in(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(
            st.floats(min_value=0.01, max_value=100.0,
                      allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_processes_complete_exactly_once(self, delays):
        sim = Simulator()
        completions = []

        def proc(sim, delay, idx):
            yield delay
            completions.append(idx)

        for idx, delay in enumerate(delays):
            sim.process(proc(sim, delay, idx))
        sim.run()
        assert sorted(completions) == list(range(len(delays)))


class TestResourceProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=5),
        holds=st.lists(
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_exceeded_and_all_served(self, capacity, holds):
        sim = Simulator()
        pool = Resource(sim, capacity=capacity)
        served = []
        over_capacity = []

        def user(sim, hold, idx):
            req = pool.request()
            yield req
            if pool.in_use > capacity:
                over_capacity.append(idx)
            yield hold
            pool.release(req)
            served.append(idx)

        for idx, hold in enumerate(holds):
            sim.process(user(sim, hold, idx))
        sim.run()
        assert not over_capacity
        assert len(served) == len(holds)
        assert pool.in_use == 0 and pool.queued == 0


class TestProcessorSharingProperties:
    @given(
        works=st.lists(
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=15,
        ),
        cores=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_work_conservation(self, works, cores):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=cores)
        for work in works:
            cpu.execute(work)
        sim.run()
        assert cpu.work_done == pytest.approx(sum(works), rel=1e-6)
        assert cpu.active_jobs == 0
        assert cpu.jobs_completed == len(works)

    @given(
        works=st.lists(
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds(self, works):
        """Single core: makespan equals total work (work conserving)."""
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=1)
        done = [cpu.execute(w) for w in works]
        sim.run()
        assert sim.now == pytest.approx(sum(works), rel=1e-6)
        assert all(ev.triggered for ev in done)

    @given(
        work=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        speed=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_speed_scales_single_job_linearly(self, work, speed):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=1, speed=speed)
        cpu.execute(work)
        sim.run()
        assert sim.now == pytest.approx(work / speed, rel=1e-6)


class TestTimeSeriesProperties:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=200,
        ),
        factor=st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_resample_mean_within_minmax(self, values, factor):
        ts = TimeSeries()
        for i, v in enumerate(values):
            ts.append(i * 0.1, v)
        coarse = ts.resample(0.1 * factor)
        assert coarse.values.min() >= min(values) - 1e-12
        assert coarse.values.max() <= max(values) + 1e-12

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=2,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_global_mean_preserved_by_unit_bins(self, values):
        ts = TimeSeries()
        for i, v in enumerate(values):
            ts.append(float(i), v)
        coarse = ts.resample(1.0)
        assert coarse.mean() == pytest.approx(np.mean(values))

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        threshold=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_intervals_above_are_disjoint_and_ordered(
        self, values, threshold
    ):
        ts = TimeSeries()
        for i, v in enumerate(values):
            ts.append(float(i), v)
        spans = ts.intervals_above(threshold)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s1 <= e1 <= s2 <= e2


class TestPercentileProperties:
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_curve_is_monotone_and_bounded(self, samples):
        curve = percentile_curve(
            "x", samples, percentiles=(10, 50, 90, 99)
        )
        values = list(curve.values)
        assert values == sorted(values)
        assert min(samples) - 1e-9 <= values[0]
        assert values[-1] <= max(samples) + 1e-9


class TestModelProperties:
    @st.composite
    def system_and_burst(draw):
        q3 = draw(st.integers(min_value=1, max_value=10))
        q2 = q3 + draw(st.integers(min_value=1, max_value=20))
        q1 = q2 + draw(st.integers(min_value=1, max_value=30))
        capacity = draw(st.floats(min_value=200.0, max_value=2000.0))
        utilization = draw(st.floats(min_value=0.2, max_value=0.8))
        arrival = capacity * utilization
        system = SystemModel(
            tiers=(
                TierModel("a", queue_size=q1, capacity=capacity * 6,
                          arrival_rate=arrival),
                TierModel("b", queue_size=q2, capacity=capacity * 2,
                          arrival_rate=arrival),
                TierModel("c", queue_size=q3, capacity=capacity,
                          arrival_rate=arrival),
            )
        )
        d_max = utilization * 0.9  # keep Condition 2 satisfied
        D = draw(st.floats(min_value=0.01, max_value=max(0.011, d_max)))
        L = draw(st.floats(min_value=0.05, max_value=0.5))
        I = L + draw(st.floats(min_value=0.5, max_value=5.0))
        return system, AttackBurst(D=min(D, d_max), L=L, I=I)

    @given(system_and_burst())
    @settings(max_examples=60, deadline=None)
    def test_analysis_invariants(self, case):
        system, burst = case
        analysis = analyze(system, burst)
        assert analysis.build_up > 0
        assert 0.0 <= analysis.damage_period <= burst.L
        assert analysis.millibottleneck >= burst.L
        assert 0.0 <= analysis.rho < 1.0
        assert analysis.rho <= burst.L / burst.I

    @given(system_and_burst())
    @settings(max_examples=60, deadline=None)
    def test_paper_fill_never_slower_than_conservative(self, case):
        system, burst = case
        paper = analyze(system, burst, conservative=False)
        conservative = analyze(system, burst, conservative=True)
        assert paper.build_up <= conservative.build_up + 1e-12
        # The two agree on the bottleneck tier's own fill time.
        assert paper.fill_up[-1] == pytest.approx(
            conservative.fill_up[-1]
        )


class TestMM1Properties:
    @given(
        service=st.floats(min_value=1.0, max_value=1000.0),
        utilization=st.floats(min_value=0.01, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_rt_increases_with_load(self, service, utilization):
        arrival = service * utilization
        low = mm1_mean_rt(arrival * 0.5, service)
        high = mm1_mean_rt(arrival, service)
        assert high >= low
        assert high >= 1.0 / service  # never faster than service time


class TestKalmanProperties:
    @given(
        truth=st.floats(min_value=-100.0, max_value=100.0),
        noise=st.floats(min_value=0.01, max_value=2.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_estimate_converges_near_truth(self, truth, noise, seed):
        rng = np.random.default_rng(seed)
        kf = ScalarKalmanFilter(
            initial=0.0, initial_var=1e4,
            process_var=1e-6, measurement_var=noise**2,
        )
        for _ in range(400):
            kf.update(truth + noise * rng.standard_normal())
        assert abs(kf.estimate - truth) < max(0.5, 5 * noise / 20)


class TestTcpProperties:
    @given(
        retries=st.integers(min_value=0, max_value=10),
        backoff=st.floats(min_value=1.0, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_timeouts_nondecreasing_and_capped(self, retries, backoff):
        policy = RetransmissionPolicy(
            max_retries=retries, backoff=backoff, max_rto=64.0
        )
        timeouts = list(policy.schedule)
        assert len(timeouts) == retries
        assert timeouts == sorted(timeouts)
        assert all(1.0 <= t <= 64.0 for t in timeouts)


class _DroppingFront:
    """A front tier that drops the first ``drops`` attempts it sees."""

    name = "front"

    def __init__(self, drops):
        self.drops = drops

    def admit(self, request):
        if self.drops:
            self.drops -= 1
            return None
        return "token"

    def serve(self, request, token):
        return
        yield


def _slept_backoffs(tcp, drops):
    """Drive ``fetch`` against a front that drops ``drops`` attempts.

    Returns the request and every delay ``fetch`` slept, in order.
    """
    app = SimpleNamespace(
        tracer=NULL_TRACER,
        front=_DroppingFront(drops),
        record=lambda request: None,
    )
    sim = SimpleNamespace(_now=0.0)
    request = Request(rid=0, page="p", demands={})
    slept = []
    for delay in fetch(sim, app, request, tcp=tcp):
        slept.append(delay)
        sim._now += delay
    return request, slept


class TestRtoScheduleProperties:
    """Attribution sums the very backoffs the client sleeps."""

    @given(
        min_rto=st.floats(min_value=0.01, max_value=5.0),
        backoff=st.floats(min_value=1.0, max_value=3.0),
        cap=st.floats(min_value=1.0, max_value=100.0),
        retries=st.integers(min_value=0, max_value=10),
        drops=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=max_examples(200), deadline=None)
    def test_attributed_rto_equals_slept_backoffs(
        self, min_rto, backoff, cap, retries, drops
    ):
        tcp = RetransmissionPolicy(
            min_rto=min_rto,
            backoff=backoff,
            max_rto=min_rto * cap,
            max_retries=retries,
        )
        request, slept = _slept_backoffs(tcp, drops)
        assert request.failed == (drops > retries)
        assert request.drops == min(drops, retries + 1)
        # The floats the former per-request generator slept.
        assert slept == list(timeouts(tcp))[:drops]
        attributed = component_breakdown(request, tcp=tcp).get(
            "rto_wait", 0.0
        )
        assert attributed == sum(slept)
        assert [tcp.rto_for_drop(i) for i in range(len(slept))] == slept


class TestRngProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_streams_reproducible_for_any_seed(self, seed):
        a = RandomStreams(seed).get("s").random(8)
        b = RandomStreams(seed).get("s").random(8)
        assert np.array_equal(a, b)


class TestZoneProperties:
    @given(
        n_hosts=st.integers(min_value=1, max_value=10),
        slots=st.integers(min_value=1, max_value=5),
        launches=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_slot_conservation(self, n_hosts, slots, launches, seed):
        from repro.cloud import CloudZone, ZoneFullError
        from repro.sim import Simulator

        zone = CloudZone(
            Simulator(),
            n_hosts=n_hosts,
            slots_per_host=slots,
            prefill=0.0,
            rng=np.random.default_rng(seed),
        )
        placed = 0
        for i in range(launches):
            try:
                zone.launch(f"vm{i}")
                placed += 1
            except ZoneFullError:
                break
        assert placed == min(launches, n_hosts * slots)
        for host_index in range(n_hosts):
            assert 0 <= zone.free_slots(host_index) <= slots

    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=10.0,
                      allow_nan=False),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_replicated_tier_weights_normalized(self, weights):
        from repro.hardware import Host, MemorySubsystem, VirtualMachine
        from repro.ntier import ReplicatedTier, Tier
        from repro.sim import Simulator

        sim = Simulator()
        replicas = []
        for i in range(len(weights)):
            host = Host(f"h{i}")
            mem = MemorySubsystem(host)
            vm = VirtualMachine(sim, f"r{i}")
            vm.attach(host, mem, package=0)
            replicas.append(Tier(sim, "db", vm, concurrency=2))
        tier = ReplicatedTier(sim, "db", replicas)
        tier.set_weights(weights)
        assert tier.weights.sum() == pytest.approx(1.0)
        assert (tier.weights >= 0).all()


class TestMvaSaturationProperties:
    """The throughput-curve knee N* moves the way capacity math says."""

    @st.composite
    def stations(draw):
        from repro.model import Station

        n = draw(st.integers(min_value=1, max_value=4))
        return [
            Station(
                f"s{i}",
                draw(st.floats(min_value=1e-4, max_value=0.1,
                               allow_nan=False)),
                servers=draw(st.integers(min_value=1, max_value=4)),
            )
            for i in range(n)
        ]

    @given(
        chain=stations(),
        think=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        extra=st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_think_time(self, chain, think, extra):
        from repro.model import saturation_population

        assert saturation_population(chain, think + extra) >= (
            saturation_population(chain, think)
        )

    @given(
        chain=stations(),
        think=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        scale=st.floats(min_value=1.1, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_bottleneck_capacity(self, chain, think, scale):
        """More servers everywhere can only raise (or keep) the knee."""
        from dataclasses import replace as dc_replace

        from repro.model import saturation_population

        wider = [
            dc_replace(s, servers=s.servers * 2) for s in chain
        ]
        assert saturation_population(wider, think) >= (
            saturation_population(chain, think)
        )

    @given(
        chain=stations(),
        think=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_knee_is_positive_and_finite(self, chain, think):
        from repro.model import saturation_population

        knee = saturation_population(chain, think)
        assert knee > 0.0
        assert math.isfinite(knee)


class TestTraceProperties:
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        demand=st.floats(min_value=1e-4, max_value=0.01),
    )
    @settings(max_examples=30, deadline=None)
    def test_replay_count_matches_trace(self, times, demand):
        from repro.cloud import CloudDeployment, DeploymentConfig, TierConfig
        from repro.sim import Simulator
        from repro.workload import TraceEntry, TraceReplayGenerator

        trace = [
            TraceEntry(time=t, page="p", demands={"db": demand})
            for t in sorted(times)
        ]
        sim = Simulator()
        deployment = CloudDeployment(
            sim,
            DeploymentConfig(
                tiers=(TierConfig("db", vcpus=1, concurrency=50),)
            ),
        )
        replay = TraceReplayGenerator(sim, deployment.app, trace)
        replay.start()
        sim.run(until=300.0)
        assert replay.replayed == len(trace)
        assert len(deployment.app.completed) == len(trace)
