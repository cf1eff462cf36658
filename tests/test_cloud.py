"""Unit tests for the cloud platform: deployment, scaling, detection."""

import numpy as np
import pytest

from repro.cloud import (
    AutoScalingPolicy,
    CloudDeployment,
    CpiDetector,
    DeploymentConfig,
    PeriodicitySpikeDetector,
    ThresholdDetector,
    TierConfig,
    cpi_series,
    rubbos_3tier,
)
from repro.monitoring import TimeSeries
from repro.sim import Simulator


class TestDeploymentConfig:
    def test_rubbos_preset_satisfies_condition1(self):
        config = rubbos_3tier()
        sizes = [t.concurrency for t in config.tiers]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_duplicate_tier_names_rejected(self):
        with pytest.raises(ValueError):
            DeploymentConfig(
                tiers=(TierConfig("a"), TierConfig("a"))
            )

    def test_empty_tiers_rejected(self):
        with pytest.raises(ValueError):
            DeploymentConfig(tiers=())


class TestCloudDeployment:
    def test_one_host_per_tier(self):
        sim = Simulator()
        deployment = CloudDeployment(sim, rubbos_3tier())
        assert set(deployment.hosts) == {"apache", "tomcat", "mysql"}
        assert deployment.app.front.name == "apache"
        assert deployment.bottleneck.name == "mysql"

    def test_front_tier_has_bounded_backlog(self):
        sim = Simulator()
        deployment = CloudDeployment(sim, rubbos_3tier())
        assert deployment.app.front.pool.max_queue is not None
        assert deployment.app.tier("mysql").pool.max_queue is None

    def test_co_locate_adversary(self):
        sim = Simulator()
        deployment = CloudDeployment(sim, rubbos_3tier())
        memory = deployment.co_locate_adversary("mysql")
        assert "adversary" in deployment.hosts["mysql"].placements
        assert memory is deployment.memories["mysql"]
        assert "adversary" in deployment.adversaries

    def test_co_locate_unknown_tier_rejected(self):
        sim = Simulator()
        deployment = CloudDeployment(sim, rubbos_3tier())
        with pytest.raises(KeyError):
            deployment.co_locate_adversary("redis")


def make_util_series(pattern, interval=0.05):
    series = TimeSeries("util")
    t = 0.0
    for value in pattern:
        series.append(t, value)
        t += interval
    return series


class TestAutoScalingPolicy:
    def test_moderate_average_never_triggers(self):
        # 25% duty saturation bursts, coarse sampling -> ~0.55 average.
        pattern = ([1.0] * 10 + [0.4] * 30) * 40
        series = make_util_series(pattern)
        events = AutoScalingPolicy(threshold=0.85, period=60.0).evaluate(
            series
        )
        assert events == []

    def test_sustained_saturation_triggers(self):
        pattern = [0.95] * 2500
        series = make_util_series(pattern)
        events = AutoScalingPolicy(threshold=0.85, period=60.0).evaluate(
            series
        )
        assert len(events) >= 1
        assert events[0].observed_utilization > 0.85

    def test_consecutive_periods_requirement(self):
        pattern = [0.95] * 1300 + [0.1] * 1300 + [0.95] * 1300
        series = make_util_series(pattern)
        policy = AutoScalingPolicy(
            threshold=0.85, period=60.0, consecutive_periods=2
        )
        assert policy.evaluate(series) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoScalingPolicy(threshold=0.0)
        with pytest.raises(ValueError):
            AutoScalingPolicy(period=-1.0)
        with pytest.raises(ValueError):
            AutoScalingPolicy(consecutive_periods=0)


class TestThresholdDetector:
    def test_short_bursts_evade(self):
        pattern = ([1.0] * 10 + [0.4] * 30) * 10  # 0.5 s bursts
        series = make_util_series(pattern)
        report = ThresholdDetector(
            threshold=0.95, min_duration=1.0
        ).run(series)
        assert not report.detected

    def test_long_saturation_caught(self):
        pattern = [1.0] * 100  # 5 s saturated
        series = make_util_series(pattern)
        report = ThresholdDetector(
            threshold=0.95, min_duration=1.0
        ).run(series)
        assert report.detected


class TestPeriodicitySpikeDetector:
    def _spiky_series(self, period_samples, n_periods, spike=10.0,
                      rng=None):
        rng = rng or np.random.default_rng(0)
        series = TimeSeries()
        t = 0.0
        for _ in range(n_periods):
            for i in range(period_samples):
                base = 1.0 + 0.05 * rng.standard_normal()
                value = spike if i < 3 else base
                series.append(t, value)
                t += 0.05
        return series

    def test_periodic_spikes_detected(self):
        series = self._spiky_series(40, 12)
        report = PeriodicitySpikeDetector().run(series)
        assert report.detected
        assert report.score < 0.35

    def test_flat_noise_not_detected(self):
        rng = np.random.default_rng(1)
        series = TimeSeries()
        for i in range(500):
            series.append(i * 0.05, 1.0 + 0.05 * rng.standard_normal())
        report = PeriodicitySpikeDetector().run(series)
        assert not report.detected

    def test_irregular_spikes_not_periodic(self):
        rng = np.random.default_rng(2)
        series = TimeSeries()
        t = 0.0
        spike_at = {3, 11, 13, 37, 41, 97, 101, 153}
        for i in range(200):
            value = 10.0 if i in spike_at else 1.0 + 0.05 * rng.standard_normal()
            series.append(t, value)
            t += 0.05
        report = PeriodicitySpikeDetector().run(series)
        assert not report.detected

    def test_too_short_series(self):
        series = TimeSeries()
        series.append(0.0, 1.0)
        report = PeriodicitySpikeDetector().run(series)
        assert not report.detected


class TestCpiDetector:
    def test_cpi_series_computes_ratio(self):
        busy = make_util_series([1.0, 1.0, 1.0])
        work = make_util_series([1.0, 0.1, 0.0])
        cpi = cpi_series(busy, work)
        assert cpi.values[0] == pytest.approx(1.0)
        assert cpi.values[1] == pytest.approx(10.0)
        assert cpi.values[2] == 100.0  # fully stalled sentinel

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError):
            cpi_series(make_util_series([1.0]), make_util_series([1.0, 2.0]))

    def test_detector_flags_stall_fraction(self):
        busy = make_util_series([1.0] * 100)
        work = make_util_series([1.0] * 90 + [0.1] * 10)
        report = CpiDetector(cpi_threshold=3.0, min_fraction=0.05).run(
            cpi_series(busy, work)
        )
        assert report.detected

    def test_detector_quiet_on_clean_cpi(self):
        busy = make_util_series([1.0] * 100)
        work = make_util_series([0.9] * 100)
        report = CpiDetector().run(cpi_series(busy, work))
        assert not report.detected
