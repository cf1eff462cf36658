"""Unit tests for the analytical model (Table I, Eqs. 2-10, planner)."""

import math

import pytest

from repro.model import (
    AttackBurst,
    ModelError,
    SystemModel,
    TierModel,
    analyze,
    degraded_capacity,
    fill_times,
    fill_times_conservative,
    mm1_mean_rt,
    plan_attack,
    queue_trajectory,
)


def paper_system(arrival=300.0):
    """The Fig 6/7 parameterization."""
    return SystemModel(
        tiers=(
            TierModel("apache", queue_size=14, capacity=3000.0,
                      arrival_rate=arrival),
            TierModel("tomcat", queue_size=7, capacity=1200.0,
                      arrival_rate=arrival),
            TierModel("mysql", queue_size=3, capacity=600.0,
                      arrival_rate=arrival),
        )
    )


BURST = AttackBurst(D=0.1, L=0.1, I=2.0)


class TestParameters:
    def test_tier_utilization(self):
        tier = TierModel("t", queue_size=5, capacity=100.0,
                         arrival_rate=50.0)
        assert tier.utilization == 0.5

    def test_overloaded_tier_rejected(self):
        with pytest.raises(ModelError):
            SystemModel(
                tiers=(
                    TierModel("t", queue_size=5, capacity=100.0,
                              arrival_rate=150.0),
                )
            )

    def test_condition1_check(self):
        assert paper_system().check_condition1()
        bad = SystemModel(
            tiers=(
                TierModel("a", queue_size=3, capacity=1000.0,
                          arrival_rate=10.0),
                TierModel("b", queue_size=5, capacity=1000.0,
                          arrival_rate=10.0),
            )
        )
        assert not bad.check_condition1()
        with pytest.raises(ModelError):
            bad.require_condition1()

    def test_burst_validation(self):
        with pytest.raises(ModelError):
            AttackBurst(D=1.5, L=0.1, I=2.0)
        with pytest.raises(ModelError):
            AttackBurst(D=0.1, L=0.0, I=2.0)
        with pytest.raises(ModelError):
            AttackBurst(D=0.1, L=2.0, I=1.0)  # I <= L

    def test_duty_cycle(self):
        assert BURST.duty_cycle == pytest.approx(0.05)


class TestEquations:
    def test_eq3_degraded_capacity(self):
        assert degraded_capacity(paper_system(), BURST) == pytest.approx(60.0)

    def test_eq4_bottleneck_fill_time(self):
        fills = fill_times(paper_system(), BURST)
        # l_n_up = Q_n / (lambda_n - C_on) = 3 / 240.
        assert fills[-1] == pytest.approx(3 / 240.0)

    def test_eq5_upstream_fill_uses_cumulative_arrivals(self):
        fills = fill_times(paper_system(), BURST)
        # l_{n-1} = (Q_2 - Q_3) / (2*lambda - C_on) = 4 / 540.
        assert fills[1] == pytest.approx(4 / 540.0)
        # l_1 = (Q_1 - Q_2) / (3*lambda - C_on) = 7 / 840.
        assert fills[0] == pytest.approx(7 / 840.0)

    def test_conservative_fill_uses_net_rate(self):
        fills = fill_times_conservative(paper_system(), BURST)
        assert fills[-1] == pytest.approx(3 / 240.0)
        assert fills[1] == pytest.approx(4 / 240.0)
        assert fills[0] == pytest.approx(7 / 240.0)

    def test_paper_fill_faster_than_conservative(self):
        paper = sum(fill_times(paper_system(), BURST))
        conservative = sum(
            fill_times_conservative(paper_system(), BURST)
        )
        assert paper < conservative

    def test_condition2_violation_raises(self):
        weak = AttackBurst(D=0.9, L=0.1, I=2.0)  # C_on = 540 > 300
        with pytest.raises(ModelError, match="Condition 2"):
            fill_times(paper_system(), weak)

    def test_eq7_damage_period(self):
        analysis = analyze(paper_system(), BURST)
        assert analysis.damage_period == pytest.approx(
            BURST.L - analysis.build_up
        )
        assert analysis.damaging

    def test_damage_clamped_at_zero_for_short_bursts(self):
        short = AttackBurst(D=0.1, L=0.01, I=2.0)
        analysis = analyze(paper_system(), short)
        assert analysis.damage_period == 0.0
        assert not analysis.damaging

    def test_eq8_rho(self):
        analysis = analyze(paper_system(), BURST)
        assert analysis.rho == pytest.approx(
            analysis.damage_period / BURST.I
        )

    def test_eq9_drain_time(self):
        analysis = analyze(paper_system(), BURST)
        # l_n_down = Q_n / (C_off - lambda) = 3 / 300.
        assert analysis.drain_time == pytest.approx(0.01)

    def test_eq10_millibottleneck(self):
        analysis = analyze(paper_system(), BURST)
        assert analysis.millibottleneck == pytest.approx(
            BURST.L + analysis.drain_time
        )

    def test_longer_burst_more_damage_same_millibottleneck_slope(self):
        short = analyze(paper_system(), AttackBurst(D=0.1, L=0.1, I=2.0))
        long = analyze(paper_system(), AttackBurst(D=0.1, L=0.3, I=2.0))
        assert long.damage_period > short.damage_period
        assert long.millibottleneck - short.millibottleneck == pytest.approx(
            0.2
        )


class TestQueueTrajectory:
    def test_levels_respect_caps(self):
        system = paper_system()
        times = [i * 0.01 for i in range(-5, 60)]
        for index, tier in enumerate(system.tiers):
            levels = queue_trajectory(system, BURST, index, times)
            assert max(levels) <= tier.queue_size + 1e-9
            assert min(levels) >= 0.0

    def test_bottleneck_fills_first(self):
        system = paper_system()
        times = [i * 0.002 for i in range(100)]
        mysql = queue_trajectory(system, BURST, 2, times)
        apache = queue_trajectory(system, BURST, 0, times)

        def full_at(levels, cap):
            for t, level in zip(times, levels):
                if level >= cap - 1e-9:
                    return t
            return math.inf

        assert full_at(mysql, 3) < full_at(apache, 14)

    def test_drains_after_burst(self):
        system = paper_system()
        late = [2.0]  # long after the burst
        levels = queue_trajectory(system, BURST, 2, late)
        assert levels[0] == 0.0

    def test_invalid_tier_index(self):
        with pytest.raises(ModelError):
            queue_trajectory(paper_system(), BURST, 5, [0.0])


class TestMM1:
    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            mm1_mean_rt(100.0, 100.0)

    def test_mean_rt(self):
        assert mm1_mean_rt(50.0, 100.0) == pytest.approx(0.02)


class TestPlanner:
    def test_plan_meets_both_goals(self):
        plan = plan_attack(paper_system(), D=0.1, target_quantile=0.95,
                           stealth_limit=1.0)
        assert plan.analysis.rho >= 1.0 - plan.target_quantile
        assert plan.analysis.millibottleneck <= plan.stealth_limit
        assert plan.burst.I > plan.burst.L

    def test_plan_uses_stealth_budget(self):
        plan = plan_attack(paper_system(), D=0.1, stealth_limit=1.0)
        assert plan.analysis.millibottleneck <= 1.0 + 1e-9

    def test_tighter_stealth_means_shorter_bursts(self):
        loose = plan_attack(paper_system(), D=0.1, stealth_limit=1.0)
        tight = plan_attack(paper_system(), D=0.1, stealth_limit=0.5)
        assert tight.burst.L < loose.burst.L

    def test_infeasible_stealth_raises(self):
        with pytest.raises(ModelError, match="infeasible"):
            plan_attack(paper_system(), D=0.1, stealth_limit=0.05)

    def test_weak_attack_rejected_via_condition2(self):
        with pytest.raises(ModelError, match="Condition 2"):
            plan_attack(paper_system(), D=0.9)

    def test_invalid_goals(self):
        with pytest.raises(ModelError):
            plan_attack(paper_system(), target_quantile=1.5)
        with pytest.raises(ModelError):
            plan_attack(paper_system(), stealth_limit=-1.0)
