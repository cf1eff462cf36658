"""Unit tests for result/record objects (no simulation needed)."""

import pytest

from repro.cloud.placement import CampaignResult
from repro.core import AttackEffect, BurstRecord
from repro.experiments.baselines import BaselineComparison, BaselineRow
from repro.experiments.defense import DefenseResult
from repro.experiments.configs import PRIVATE_CLOUD
from tests import _claims as claims


def make_row(campaign, p95, autoscale=False, rate=False, llc=False):
    return BaselineRow(
        campaign=campaign,
        legit_p95=p95,
        fraction_above_rto=0.05 if p95 > 1 else 0.0,
        drops=100,
        avg_mysql_util=0.6,
        autoscaling_triggered=autoscale,
        rate_anomaly_detected=rate,
        llc_signature_detected=llc,
    )


class TestBaselineRow:
    def test_damaging_threshold(self):
        assert make_row("x", 1.2).damaging
        assert not make_row("x", 0.5).damaging

    def test_stealthy_requires_clearing_all_detectors(self):
        assert make_row("x", 1.2).stealthy
        assert not make_row("x", 1.2, autoscale=True).stealthy
        assert not make_row("x", 1.2, rate=True).stealthy
        assert not make_row("x", 1.2, llc=True).stealthy

    def test_comparison_lookup_and_render(self):
        comparison = BaselineComparison(
            scenario=PRIVATE_CLOUD,
            rows=[make_row("none", 0.01), make_row("memca", 1.1)],
        )
        assert comparison.row("memca").damaging
        with pytest.raises(KeyError):
            comparison.row("quantum")
        text = comparison.render()
        assert "DAMAGING+STEALTHY" in text


class TestAttackEffect:
    def _effect(self, millibottlenecks=()):
        return AttackEffect(
            window=(0.0, 60.0),
            requests=1000,
            percentiles={50: 0.01, 95: 1.2},
            fraction_above_rto=0.06,
            drops=50,
            failed=0,
            retransmitted=55,
            bursts=30,
            mean_burst_length=0.5,
            avg_bottleneck_utilization=0.65,
            millibottlenecks=list(millibottlenecks),
        )

    def test_mean_millibottleneck(self):
        effect = self._effect([(0.0, 0.5), (2.0, 3.0)])
        assert effect.mean_millibottleneck == pytest.approx(0.75)
        assert self._effect().mean_millibottleneck is None

    def test_summary_mentions_key_numbers(self):
        text = self._effect([(0.0, 0.6)]).summary()
        assert "1200ms" in text
        assert "drops=50" in text
        assert "65%" in text


class TestBurstRecord:
    def test_length(self):
        burst = BurstRecord(start=1.0, end=1.5, intensity=0.8)
        assert burst.length == pytest.approx(0.5)


class TestCampaignResult:
    def test_summary_success_and_failure(self):
        success = CampaignResult(
            success=True, co_resident_vm="candidate-3",
            vms_launched=12, probes_run=12, duration=30.0,
            vm_hours=0.1, cost_usd=0.22,
        )
        assert "candidate-3" in success.summary()
        failure = CampaignResult(
            success=False, co_resident_vm=None,
            vms_launched=60, probes_run=60, duration=200.0,
            vm_hours=1.0, cost_usd=0.70,
        )
        assert "FAILED" in failure.summary()


class TestDefenseResult:
    def _result(self):
        return DefenseResult(
            scenario=PRIVATE_CLOUD,
            window=10.0,
            timeline=[(10.0, 1.0, 500), (20.0, 0.02, 520),
                      (30.0, 0.015, 530)],
            migrations=[],
            recolocations=[],
            summary=None,
        )

    def test_p95_between_uses_median_of_windows(self):
        result = self._result()
        assert claims.p95_between(result, 20.0, 40.0) == pytest.approx(0.0175)

    def test_p95_between_empty_raises(self):
        with pytest.raises(ValueError):
            claims.p95_between(self._result(), 100.0, 200.0)

    def test_render_marks_windows(self):
        text = self._result().render()
        assert "10-20s" in text and "client p95" in text
