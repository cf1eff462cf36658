"""Unit tests for the RUBBoS workload and open-loop generators."""

import numpy as np
import pytest

from repro.hardware import Host, MemorySubsystem, VirtualMachine
from repro.ntier import NTierApplication, Tier
from repro.sim import Simulator
from repro.workload import (
    RUBBOS_PAGES,
    RUBBOS_TRANSITIONS,
    OpenLoopGenerator,
    RubbosWorkload,
    exponential_request_factory,
)


class TestPageCatalogue:
    def test_transition_matrix_is_stochastic(self):
        sums = RUBBOS_TRANSITIONS.sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_matrix_matches_page_count(self):
        assert RUBBOS_TRANSITIONS.shape == (len(RUBBOS_PAGES),) * 2

    def test_static_page_skips_dynamic_tiers(self):
        static = next(p for p in RUBBOS_PAGES if p.name == "StaticContent")
        assert static.mean("mysql") == 0.0
        assert static.mean("apache") > 0.0

    def test_mysql_is_dominant_demand(self):
        # The paper's bottleneck: MySQL CPU dominates dynamic pages.
        for page in RUBBOS_PAGES:
            if page.mean("mysql") > 0:
                assert page.mean("mysql") > page.mean("apache")


class TestRubbosWorkload:
    def test_stationary_distribution_sums_to_one(self):
        wl = RubbosWorkload(rng=np.random.default_rng(1))
        pi = wl.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0)
        assert (pi > 0).all()

    def test_stationary_is_fixed_point(self):
        wl = RubbosWorkload(rng=np.random.default_rng(1))
        pi = wl.stationary_distribution()
        assert np.allclose(pi @ wl.transitions, pi, atol=1e-9)

    def test_sample_page_distribution_approximates_stationary(self):
        wl = RubbosWorkload(rng=np.random.default_rng(3))
        pi = wl.stationary_distribution()
        counts = {p.name: 0 for p in wl.pages}
        n = 4000
        for _ in range(n):
            counts[wl.sample_page().name] += 1
        for page, target in zip(wl.pages, pi):
            assert counts[page.name] / n == pytest.approx(target, abs=0.05)

    def test_make_request_samples_demands(self):
        wl = RubbosWorkload(rng=np.random.default_rng(4))
        request = wl.make_request(7)
        assert request.rid == 7
        assert all(d > 0 for d in request.demands.values())

    def test_deterministic_demands_option(self):
        wl = RubbosWorkload(
            rng=np.random.default_rng(5), deterministic_demands=True
        )
        page = wl.pages[0]
        r1 = wl.make_request(1, page)
        r2 = wl.make_request(2, page)
        assert r1.demands == r2.demands

    def test_demand_scale_multiplies(self):
        base = RubbosWorkload(rng=np.random.default_rng(6))
        scaled = RubbosWorkload(
            rng=np.random.default_rng(6), demand_scale=2.0
        )
        assert scaled.mean_demand("mysql") == pytest.approx(
            2 * base.mean_demand("mysql")
        )

    def test_mean_demand_is_stationary_weighted(self):
        wl = RubbosWorkload(rng=np.random.default_rng(7))
        pi = wl.stationary_distribution()
        expected = sum(
            p * page.mean("mysql") for p, page in zip(pi, wl.pages)
        )
        assert wl.mean_demand("mysql") == pytest.approx(expected)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            RubbosWorkload(demand_scale=0.0)

    def test_bad_matrix_rejected(self):
        bad = np.eye(len(RUBBOS_PAGES)) * 0.5
        with pytest.raises(ValueError):
            RubbosWorkload(transitions=bad)


class TestExponentialFactory:
    def test_demands_exponential_around_mean(self):
        rng = np.random.default_rng(9)
        factory = exponential_request_factory({"db": 0.01}, rng)
        samples = [factory(i).demands["db"] for i in range(2000)]
        assert np.mean(samples) == pytest.approx(0.01, rel=0.1)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            exponential_request_factory(
                {"db": 0.0}, np.random.default_rng(0)
            )


class TestOpenLoopGenerator:
    def test_poisson_arrival_rate(self):
        sim = Simulator()
        host = Host("h")
        mem = MemorySubsystem(host)
        vm = VirtualMachine(sim, "t", vcpus=1)
        vm.attach(host, mem, package=0)
        tier = Tier(sim, "t", vm, concurrency=50, net_delay=0.0)
        app = NTierApplication(sim, [tier])
        rng = np.random.default_rng(10)
        factory = exponential_request_factory({"t": 0.001}, rng)
        gen = OpenLoopGenerator(
            sim, app, factory, rate=100.0,
            rng=np.random.default_rng(11),
        )
        gen.start()
        gen.start()  # idempotent
        sim.run(until=20.0)
        assert gen.arrivals == pytest.approx(2000, rel=0.1)
        assert len(app.completed) == gen.arrivals

    def test_invalid_rate(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            OpenLoopGenerator(sim, None, lambda rid: None, rate=-1.0)
