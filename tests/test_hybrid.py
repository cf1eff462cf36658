"""Hybrid fluid/DES engine: split arithmetic, coupling hooks, physics.

Covers the pieces bottom-up:

* ``HybridConfig`` validation and population-split arithmetic;
* the background-load hooks grafted onto the DES primitives
  (``ProcessorSharingServer.set_background_load``,
  ``Resource.set_background``) — including the zero-background fast
  path contract that keeps non-hybrid runs on pre-hybrid arithmetic;
* ``FluidEngine`` mean-field physics on a hand-built tier chain: mass
  conservation, steady-state throughput against the closed-loop law,
  attack-boundary re-stepping, and ``fluid.window`` publishing;
* runner integration: request weights, FluidSummary extraction,
  weighted throughput, and tail convergence toward the full-DES run;
* sweep-cache keys: a hybrid scenario must hash differently from the
  full-DES scenario it approximates (``stable_hash`` regression).

Byte-identity of ``sample_fraction=1.0`` against the committed goldens
lives in ``tests/test_determinism.py`` (TestHybridNeutrality).
"""

from dataclasses import replace

import pytest

from repro.sim import (
    FluidEngine,
    FluidTier,
    HybridConfig,
    ProcessorSharingServer,
    Resource,
    Simulator,
)
from repro.sim.resources import CapacityError


class TestHybridConfig:
    def test_split_arithmetic(self):
        split = HybridConfig(sample_fraction=0.05).split(1000)
        assert split.sampled == 50
        assert split.bulk == 950
        assert split.weight == pytest.approx(20.0)
        assert split.sampled + split.bulk == split.users

    def test_weight_times_sampled_recovers_population(self):
        for fraction in (0.01, 0.25, 0.5, 0.9):
            for users in (10, 999, 2600, 100_000):
                split = HybridConfig(sample_fraction=fraction).split(users)
                assert split.sampled * split.weight == pytest.approx(users)

    def test_full_fraction_has_no_bulk(self):
        split = HybridConfig(sample_fraction=1.0).split(777)
        assert split.sampled == 777
        assert split.bulk == 0
        assert split.weight == 1.0

    def test_tiny_fraction_keeps_at_least_one_sampled_user(self):
        split = HybridConfig(sample_fraction=0.001).split(10)
        assert split.sampled == 1
        assert split.bulk == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            HybridConfig(sample_fraction=1.5)
        with pytest.raises(ValueError):
            HybridConfig(fluid_tick=0.0)
        with pytest.raises(ValueError):
            HybridConfig(rto=-1.0)
        with pytest.raises(ValueError):
            HybridConfig(publish_window=0.0)
        with pytest.raises(ValueError):
            HybridConfig().split(0)


class TestProcessorSharingBackground:
    def test_background_shares_the_core(self):
        # One discrete job + 1.0 background on a single core: the job
        # gets half the core, so 1.0s of work finishes at t=2.
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=1)
        cpu.set_background_load(1.0)
        cpu.execute(1.0)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_background_below_cores_is_free(self):
        # Two cores, one job, 1.0 background: total load 2 <= cores,
        # everyone runs at full speed.
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=2)
        cpu.set_background_load(1.0)
        cpu.execute(1.0)
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_background_change_mid_job(self):
        # Full speed for the first half of the work, then a background
        # of 1.0 halves the rate: 0.5 + 1.0 = 1.5s total.  (Assert the
        # completion instant, not sim.now — a superseded completion
        # timer legitimately drains the clock further.)
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=1)
        finished = []
        cpu.execute(1.0).callbacks.append(
            lambda ev: finished.append(sim.now)
        )
        sim.call_in(0.5, lambda: cpu.set_background_load(1.0))
        sim.run()
        assert finished == [pytest.approx(1.5)]

    def test_clearing_background_restores_full_speed(self):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=1)
        cpu.set_background_load(3.0)
        finished = []
        cpu.execute(1.0).callbacks.append(
            lambda ev: finished.append(sim.now)
        )
        sim.call_in(1.0, lambda: cpu.set_background_load(0.0))
        # First second at 1/4 speed leaves 0.75 of work at full speed.
        sim.run()
        assert finished == [pytest.approx(1.75)]
        assert cpu.background_load == 0.0

    def test_background_alone_accrues_busy_time(self):
        # Bulk-only load keeps the server busy for utilization math.
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=2)
        cpu.set_background_load(1.5)
        sim.call_in(2.0, lambda: None)
        sim.run()
        assert cpu.busy_core_seconds == pytest.approx(3.0)

    def test_work_conservation_with_background(self):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=2)
        cpu.set_background_load(0.7)
        works = [0.3, 0.5, 0.9]
        for work in works:
            cpu.execute(work)
        sim.run()
        assert cpu.work_done == pytest.approx(sum(works))
        assert cpu.active_jobs == 0

    def test_negative_background_rejected(self):
        from repro.sim.core import SimulationError

        sim = Simulator()
        cpu = ProcessorSharingServer(sim, cores=1)
        with pytest.raises(SimulationError):
            cpu.set_background_load(-0.1)


class TestResourceBackground:
    def test_background_occupies_capacity_slots(self):
        sim = Simulator()
        pool = Resource(sim, capacity=2)
        pool.set_background(1.5)
        first = pool.request()   # 0 + 1.5 < 2: granted
        second = pool.request()  # 1 + 1.5 >= 2: queued
        sim.run()
        assert first.triggered
        assert not second.triggered
        assert pool.queued == 1

    def test_lowering_background_promotes_waiters(self):
        sim = Simulator()
        pool = Resource(sim, capacity=2)
        pool.set_background(1.5)
        pool.request()
        waiting = pool.request()
        sim.run()
        assert not waiting.triggered
        pool.set_background(0.0)
        sim.run()
        assert waiting.triggered
        assert pool.in_use == 2

    def test_background_spills_into_bounded_backlog(self):
        # capacity 2 + backlog 2, background 3: bulk fills both slots
        # and one backlog seat, so the second waiter is rejected.
        sim = Simulator()
        pool = Resource(sim, capacity=2, max_queue=2)
        pool.set_background(3.0)
        queued = pool.request()
        assert not queued.triggered
        with pytest.raises(CapacityError):
            pool.request()
        assert pool.total_rejections == 1

    def test_release_with_standing_background_does_not_promote(self):
        # Both slots held, then 1.5 bulk arrives: releasing one holder
        # leaves 1 + 1.5 >= 2 occupancy, so the bulk absorbs the freed
        # slot and the discrete waiter stays queued — consistent with
        # the grant rule a fresh request() would apply.
        sim = Simulator()
        pool = Resource(sim, capacity=2)
        first = pool.request()
        second = pool.request()
        sim.run()
        pool.set_background(1.5)
        waiting = pool.request()
        sim.run()
        assert not waiting.triggered
        pool.release(first)
        sim.run()
        assert not waiting.triggered
        assert pool.in_use == 1
        # Clearing the bulk hands the slot to the waiter.
        pool.set_background(0.0)
        sim.run()
        assert waiting.triggered

    def test_zero_background_path_untouched(self):
        # The fast path must behave exactly as before the hybrid hooks.
        sim = Simulator()
        pool = Resource(sim, capacity=1, max_queue=1)
        a = pool.request()
        b = pool.request()
        with pytest.raises(CapacityError):
            pool.request()
        sim.run()
        pool.release(a)
        sim.run()
        assert b.triggered
        assert pool.background == 0.0


def _chain(sim, capacities, cores=2, demand=0.005, max_backlog=None):
    """A hand-built tier chain for engine-level tests."""
    tiers = []
    for i, capacity in enumerate(capacities):
        cpu = ProcessorSharingServer(sim, cores=cores)
        pool = Resource(
            sim,
            capacity=capacity,
            max_queue=max_backlog if i == 0 else None,
        )
        tiers.append(
            FluidTier(name=f"t{i}", cpu=cpu, pool=pool, demand=demand)
        )
    return tiers


class TestFluidEngine:
    def test_mass_conservation(self):
        sim = Simulator()
        tiers = _chain(sim, [50, 20, 8])
        engine = FluidEngine(
            sim, tiers, bulk_users=500, think_time=7.0,
            config=HybridConfig(sample_fraction=0.5),
        )
        engine.start()
        for until in (0.5, 3.0, 10.0):
            sim.run(until=until)
            total = (
                sum(engine.x) + engine.thinking + engine._retry_mass
            )
            assert total == pytest.approx(500.0, abs=1e-6)

    def test_steady_state_matches_closed_loop_law(self):
        # Uncontended chain well below saturation: X -> N / (Z + R_0).
        sim = Simulator()
        tiers = _chain(sim, [100, 50, 20], demand=0.004)
        engine = FluidEngine(
            sim, tiers, bulk_users=700, think_time=7.0,
            config=HybridConfig(),
        )
        engine.start()
        sim.run(until=30.0)
        # Measure throughput over the last 10 simulated seconds.
        before = engine.completed
        sim.run(until=40.0)
        throughput = (engine.completed - before) / 10.0
        expected = 700 / (7.0 + 3 * 0.004)
        assert throughput == pytest.approx(expected, rel=0.02)

    def test_coupling_pushes_background_into_tiers(self):
        sim = Simulator()
        tiers = _chain(sim, [10, 5, 2], demand=0.5)  # heavy demand
        engine = FluidEngine(
            sim, tiers, bulk_users=100, think_time=1.0,
            config=HybridConfig(),
        )
        engine.start()
        sim.run(until=5.0)
        assert sum(engine.x) > 0.0
        assert any(t.cpu.background_load > 0.0 for t in tiers)
        assert any(t.pool.background > 0.0 for t in tiers)

    def test_uncoupled_engine_leaves_tiers_alone(self):
        sim = Simulator()
        tiers = _chain(sim, [10, 5, 2], demand=0.5)
        engine = FluidEngine(
            sim, tiers, bulk_users=100, think_time=1.0,
            config=HybridConfig(couple=False),
        )
        engine.start()
        sim.run(until=5.0)
        assert all(t.cpu.background_load == 0.0 for t in tiers)
        assert all(t.pool.background == 0.0 for t in tiers)

    def test_bounded_front_drops_and_retries(self):
        # Front tier with 2 slots + 1 backlog seat against 200 eager
        # users: most arriving mass must be dropped into RTO buckets.
        sim = Simulator()
        tiers = _chain(sim, [2, 2], demand=0.5, max_backlog=1)
        engine = FluidEngine(
            sim, tiers, bulk_users=200, think_time=0.5,
            config=HybridConfig(rto=1.0),
        )
        engine.start()
        sim.run(until=3.0)
        assert engine.dropped > 0.0
        assert engine._retry_mass > 0.0
        # Admission never exceeds the front's admission capacity.
        assert engine.occupancy(0) <= tiers[0].admission_capacity + 1e-6

    def test_windows_published_on_bus(self):
        from repro.obs.bus import EventBus

        bus = EventBus()
        seen = []
        bus.subscribe("fluid.window", seen.append)
        sim = Simulator()
        tiers = _chain(sim, [50, 20, 8])
        engine = FluidEngine(
            sim, tiers, bulk_users=300, think_time=7.0,
            config=HybridConfig(publish_window=1.0), bus=bus,
        )
        engine.start()
        sim.run(until=5.5)
        assert len(seen) == 5
        assert seen == engine.windows
        for window in seen:
            assert window.end > window.start
            assert set(window.queues) == {"t0", "t1", "t2"}
            assert window.thinking >= 0.0
            assert window.throughput >= 0.0

    def test_window_spans_partition_the_run(self):
        sim = Simulator()
        tiers = _chain(sim, [50, 20, 8])
        engine = FluidEngine(
            sim, tiers, bulk_users=300, think_time=7.0,
            config=HybridConfig(publish_window=1.0),
        )
        engine.start()
        sim.run(until=6.0)
        windows = engine.windows
        assert windows[0].start == 0.0
        for prev, cur in zip(windows, windows[1:]):
            assert cur.start == prev.end

    def test_attack_boundary_forces_exact_restep(self):
        """A watched speed change syncs the engine off-tick."""

        class FakeMemory:
            def __init__(self):
                self.listeners = []

            def subscribe(self, fn):
                self.listeners.append(fn)

            def fire(self):
                for fn in self.listeners:
                    fn()

        sim = Simulator()
        tiers = _chain(sim, [50, 20, 8])
        engine = FluidEngine(
            sim, tiers, bulk_users=300, think_time=7.0,
            config=HybridConfig(fluid_tick=0.02),
        )
        memory = FakeMemory()
        engine.watch(memory)
        engine.start()
        # Fire a boundary off the tick grid: the engine must advance
        # its internal clock to exactly sim.now.
        sim.call_in(0.0305, memory.fire)
        sim.run(until=0.0305)
        assert engine._last == pytest.approx(0.0305)

    def test_validation(self):
        sim = Simulator()
        tiers = _chain(sim, [10])
        with pytest.raises(ValueError):
            FluidEngine(sim, [], 10, 1.0, HybridConfig())
        with pytest.raises(ValueError):
            FluidEngine(sim, tiers, -1, 1.0, HybridConfig())
        with pytest.raises(ValueError):
            FluidEngine(sim, tiers, 10, 0.0, HybridConfig())


@pytest.fixture(scope="module")
def hybrid_scenario():
    from repro.experiments.configs import PRIVATE_CLOUD

    return replace(
        PRIVATE_CLOUD,
        name="hybrid-test",
        users=800,
        duration=8.0,
        warmup=2.0,
    )


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def runs(self, hybrid_scenario):
        from repro.experiments.runner import run_rubbos
        from repro.experiments.summary import summarize_rubbos

        full = summarize_rubbos(run_rubbos(hybrid_scenario))
        hybrid_run = run_rubbos(
            hybrid_scenario, hybrid=HybridConfig(sample_fraction=0.25)
        )
        hybrid = summarize_rubbos(hybrid_run)
        return full, hybrid_run, hybrid

    def test_population_is_split(self, runs):
        _, run, _ = runs
        assert run.population.users == 200
        assert run.population.weight == pytest.approx(4.0)
        assert run.fluid is not None
        assert run.fluid.bulk_users == 600

    def test_requests_carry_weights(self, runs):
        import numpy as np

        _, run, summary = runs
        assert all(
            r.weight == pytest.approx(4.0) for r in run.app.completed
        )
        assert np.allclose(summary.requests["weight"], 4.0)

    def test_fluid_summary_extracted(self, runs):
        _, run, summary = runs
        fluid = summary.fluid
        assert fluid is not None
        assert fluid.bulk_users == 600
        assert fluid.sampled_users == 200
        assert fluid.weight == pytest.approx(4.0)
        assert fluid.completed > 0.0
        assert set(fluid.peak_queues) == {"apache", "tomcat", "mysql"}
        assert len(fluid.windows) >= 7  # one per publish_window second

    def test_weighted_throughput_scales_to_population(self, runs):
        full, _, hybrid = runs
        assert hybrid.weighted_throughput() == pytest.approx(
            full.weighted_throughput(), rel=0.25
        )

    def test_hybrid_tail_tracks_full_des(self, runs):
        import numpy as np

        full, _, hybrid = runs
        p99_full = float(np.percentile(full.client_response_times(), 99))
        p99_hybrid = float(
            np.percentile(hybrid.client_response_times(), 99)
        )
        assert p99_hybrid == pytest.approx(p99_full, rel=0.35)

    def test_full_des_summary_has_no_fluid(self, runs):
        full, _, _ = runs
        assert full.fluid is None

    def test_scenario_hybrid_field_used_as_default(self, hybrid_scenario):
        from repro.experiments.runner import run_rubbos

        scenario = replace(
            hybrid_scenario,
            duration=2.0,
            warmup=0.0,
            hybrid=HybridConfig(sample_fraction=0.5),
        )
        run = run_rubbos(scenario)
        assert run.fluid is not None
        assert run.population.users == 400


class TestConvergenceToFullDes:
    """The sampled tail converges on full DES as the fraction grows.

    One full-DES reference and a ``sample_fraction`` sweep of the same
    scenario — quick: private cloud at 1,000 users x 12 s (warmup 4);
    full (``pytest --perf``): the private-cloud scenario as
    registered.  At f = 1.0 the bulk is empty, so P50/P99/P99.9 agree
    within 5% and the post-warmup request table is byte-identical.  The
    interior fractions carry gross-regression tripwires, not accuracy
    claims: the median is where the mean-field bulk is visibly coarse
    (its background never fully drains between bursts; ~1.1-2.1x
    measured), and P99.9 is resolution-limited at small samples
    (retransmission outliers a few-hundred-user sample rarely holds).
    """

    TOP_RELATIVE_ERROR = 0.05
    MID_RELATIVE_ERROR = {50.0: 3.0, 99.0: 0.35, 99.9: 1.0}

    @pytest.fixture(
        scope="class",
        params=["quick", pytest.param("full", marks=pytest.mark.perf)],
    )
    def sweep(self, request):
        from repro.experiments.configs import PRIVATE_CLOUD
        from repro.experiments.runner import run_rubbos
        from repro.experiments.summary import summarize_rubbos

        scenario = PRIVATE_CLOUD
        if request.param == "quick":
            scenario = replace(
                PRIVATE_CLOUD.with_users(1000), duration=12.0, warmup=4.0
            )
        reference = summarize_rubbos(run_rubbos(scenario))
        return reference, {
            fraction: summarize_rubbos(run_rubbos(
                scenario, hybrid=HybridConfig(sample_fraction=fraction)
            ))
            for fraction in (0.25, 0.5, 1.0)
        }

    @staticmethod
    def _relative_errors(reference, summary):
        import numpy as np

        qs = (50.0, 99.0, 99.9)
        exact = np.percentile(reference.client_response_times(), qs)
        estimated = np.percentile(summary.client_response_times(), qs)
        return dict(zip(qs, abs(estimated - exact) / exact))

    def test_full_fraction_within_5pct(self, sweep):
        reference, summaries = sweep
        errors = self._relative_errors(reference, summaries[1.0])
        assert max(errors.values()) <= self.TOP_RELATIVE_ERROR

    def test_full_fraction_table_byte_identical(self, sweep):
        # Raw bytes: NaN cells (tiers a request never reached) compare
        # unequal element-wise.
        reference, summaries = sweep
        assert (
            summaries[1.0].requests.tobytes()
            == reference.requests.tobytes()
        )

    @pytest.mark.parametrize("fraction", [0.25, 0.5])
    def test_interior_fraction_tripwires(self, sweep, fraction):
        reference, summaries = sweep
        errors = self._relative_errors(reference, summaries[fraction])
        for q, budget in self.MID_RELATIVE_ERROR.items():
            assert errors[q] <= budget, f"p{q:g}"


class TestSweepCacheKeys:
    """Hybrid configuration must be part of the content-addressed key."""

    def test_hybrid_scenarios_hash_distinctly(self, hybrid_scenario):
        from repro.experiments.parallel import stable_hash

        plain = stable_hash(hybrid_scenario)
        coarse = stable_hash(
            replace(
                hybrid_scenario, hybrid=HybridConfig(sample_fraction=0.1)
            )
        )
        fine = stable_hash(
            replace(
                hybrid_scenario, hybrid=HybridConfig(sample_fraction=0.5)
            )
        )
        uncoupled = stable_hash(
            replace(
                hybrid_scenario,
                hybrid=HybridConfig(sample_fraction=0.5, couple=False),
            )
        )
        assert len({plain, coarse, fine, uncoupled}) == 4

    def test_equal_hybrid_configs_hash_equal(self, hybrid_scenario):
        from repro.experiments.parallel import stable_hash

        a = replace(hybrid_scenario, hybrid=HybridConfig())
        b = replace(hybrid_scenario, hybrid=HybridConfig())
        assert stable_hash(a) == stable_hash(b)

    def test_with_users_cell_hashes_distinctly(self, hybrid_scenario):
        from repro.experiments.parallel import stable_hash

        assert stable_hash(hybrid_scenario.with_users(1600)) != (
            stable_hash(hybrid_scenario)
        )


class TestWithUsers:
    def test_capacities_co_scale(self):
        from repro.experiments.configs import PRIVATE_CLOUD

        doubled = PRIVATE_CLOUD.with_users(PRIVATE_CLOUD.users * 2)
        assert doubled.users == PRIVATE_CLOUD.users * 2
        assert doubled.apache_threads == PRIVATE_CLOUD.apache_threads * 2
        assert doubled.tomcat_threads == PRIVATE_CLOUD.tomcat_threads * 2
        assert doubled.mysql_connections == (
            PRIVATE_CLOUD.mysql_connections * 2
        )
        assert doubled.tier_vcpus == PRIVATE_CLOUD.tier_vcpus * 2

    def test_attack_is_not_diluted(self):
        from repro.experiments.configs import PRIVATE_CLOUD

        scaled = PRIVATE_CLOUD.with_users(10 * PRIVATE_CLOUD.users)
        assert scaled.attack == PRIVATE_CLOUD.attack

    def test_small_populations_keep_capacity_floors(self):
        from repro.experiments.configs import PRIVATE_CLOUD

        tiny = PRIVATE_CLOUD.with_users(10)
        assert tiny.mysql_connections >= 1
        assert tiny.tier_vcpus >= 1

    def test_validation(self):
        from repro.experiments.configs import PRIVATE_CLOUD

        with pytest.raises(ValueError):
            PRIVATE_CLOUD.with_users(0)
