"""Unit tests for service-demand distributions and sessioned users."""

import numpy as np
import pytest

from repro.workload import (
    BoundedPareto,
    Deterministic,
    Exponential,
    LogNormal,
    RubbosWorkload,
)

ALL_DISTRIBUTIONS = (
    Deterministic(),
    Exponential(),
    LogNormal(sigma=1.0),
    BoundedPareto(alpha=1.8),
)


class TestDistributions:
    @pytest.mark.parametrize(
        "distribution", ALL_DISTRIBUTIONS, ids=lambda d: d.name
    )
    def test_mean_preserved(self, distribution):
        rng = np.random.default_rng(1)
        target = 0.01
        samples = [
            distribution.sample(rng, target) for _ in range(20000)
        ]
        assert np.mean(samples) == pytest.approx(target, rel=0.1)

    @pytest.mark.parametrize(
        "distribution", ALL_DISTRIBUTIONS, ids=lambda d: d.name
    )
    def test_samples_positive(self, distribution):
        rng = np.random.default_rng(2)
        assert all(
            distribution.sample(rng, 0.5) > 0 for _ in range(100)
        )

    @pytest.mark.parametrize(
        "distribution", ALL_DISTRIBUTIONS, ids=lambda d: d.name
    )
    def test_invalid_mean_rejected(self, distribution):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            distribution.sample(rng, 0.0)

    def test_deterministic_has_zero_variance(self):
        rng = np.random.default_rng(4)
        d = Deterministic()
        samples = {d.sample(rng, 0.2) for _ in range(10)}
        assert samples == {0.2}

    def test_heavier_tails_rank(self):
        rng = np.random.default_rng(5)
        n = 50000

        def p999(distribution):
            samples = [distribution.sample(rng, 1.0) for _ in range(n)]
            return np.percentile(samples, 99.9)

        assert p999(Exponential()) < p999(LogNormal(sigma=1.5))

    def test_pareto_capped(self):
        rng = np.random.default_rng(6)
        d = BoundedPareto(alpha=1.2, cap_factor=10.0)
        samples = [d.sample(rng, 1.0) for _ in range(20000)]
        assert max(samples) <= 10.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LogNormal(sigma=0.0)
        with pytest.raises(ValueError):
            BoundedPareto(alpha=1.0)
        with pytest.raises(ValueError):
            BoundedPareto(cap_factor=0.5)


class TestWorkloadDistributionIntegration:
    def test_workload_uses_distribution(self):
        deterministic = RubbosWorkload(
            rng=np.random.default_rng(7), distribution=Deterministic()
        )
        page = deterministic.pages[0]
        assert deterministic.sample_demands(page) == (
            deterministic.sample_demands(page)
        )

    def test_deterministic_flag_back_compat(self):
        wl = RubbosWorkload(
            rng=np.random.default_rng(8), deterministic_demands=True
        )
        assert wl.distribution.name == "deterministic"

    def test_default_is_exponential(self):
        wl = RubbosWorkload(rng=np.random.default_rng(9))
        assert wl.distribution.name == "exponential"


class TestSessionedUsers:
    def test_population_requires_some_factory(self):
        from repro.ntier import UserPopulation
        from repro.sim import Simulator

        with pytest.raises(ValueError):
            UserPopulation(
                Simulator(), None, request_factory=None, users=1
            )
