"""Scaled-down executions of the remaining experiment modules.

``tests/test_figures.py`` runs the full-size versions under
``--perf``; these shrunken runs give the unit suite end-to-end coverage
of figs 9-11, validation, and the controller without full-scale
runtimes.
"""

from dataclasses import replace

import pytest

from repro.cloud import AutoScalingPolicy
from repro.core import ControlGoals
from repro.experiments import (
    MODEL_3TIER,
    PRIVATE_CLOUD,
    AttackSpec,
    run_controller,
    run_fig9,
    run_fig10,
    run_fig11,
    run_rubbos,
    run_validation,
)
from tests import _claims as claims

#: One shared attacked run reused by the fig9/fig10 tests.
FAST = replace(
    PRIVATE_CLOUD,
    name="fast",
    users=1200,
    duration=24.0,
    warmup=6.0,
    apache_threads=40,
    apache_backlog=8,
    tomcat_threads=20,
    mysql_connections=6,
)


@pytest.fixture(scope="module")
def fast_run():
    return run_rubbos(FAST)


class TestFig9Module:
    def test_snapshot_extraction(self, fast_run):
        result = run_fig9(run=fast_run, window_start=10.0,
                          window_length=8.0)
        assert result.window == (10.0, 18.0)
        assert 3 <= len(result.bursts) <= 6
        assert claims.transient_saturations(result) >= 2
        assert len(result.client_points) > 100

    def test_window_past_run_rejected(self, fast_run):
        with pytest.raises(ValueError):
            run_fig9(run=fast_run, window_start=100.0)

    def test_render_shows_all_panels(self, fast_run):
        text = run_fig9(run=fast_run, window_start=10.0).render()
        for marker in ("(a)", "(b)", "(c)", "(d)"):
            assert marker in text


class TestFig10Module:
    def test_granularity_views(self, fast_run):
        policy = AutoScalingPolicy(threshold=0.85, period=6.0)
        result = run_fig10(run=fast_run, policy=policy)
        assert set(result.views) == {
            "ultrafine_50ms", "fine_1s", "cloudwatch_1min",
        }
        fine = result.views["ultrafine_50ms"]
        assert fine.max() == pytest.approx(1.0)
        # Coarse view dilutes the bursts below the fine-grained peak.
        coarse = fine.resample(6.0)
        assert coarse.max() < fine.max()

    def test_stealth_verdict_in_render(self, fast_run):
        result = run_fig10(run=fast_run)
        assert "Auto Scaling" in result.render()


class TestFig11Module:
    def test_signature_asymmetry(self):
        scenario = replace(FAST, name="fast-llc", duration=30.0)
        result = run_fig11(scenario)
        assert claims.saturation_leaves_signature(result)
        assert claims.lock_is_invisible(result)

    def test_render_has_both_programs(self):
        scenario = replace(FAST, name="fast-llc2", duration=30.0)
        text = run_fig11(scenario).render()
        assert "saturate" in text and "lock" in text


class TestValidationModule:
    def test_small_validation_tracks_model(self):
        scenario = replace(MODEL_3TIER, duration=30.0)
        result = run_validation(scenario)
        assert claims.conservative_within(result, 0.6)
        for row in result.rows:
            assert row.measured.bursts_observed >= 10

    def test_render_lists_all_bursts(self):
        scenario = replace(MODEL_3TIER, duration=25.0)
        result = run_validation(scenario)
        text = result.render()
        assert text.count("D=0.1") == 2 and "D=0.2" in text


class TestControllerModule:
    def test_short_controller_run_escalates(self):
        scenario = replace(
            FAST,
            name="fast-controlled",
            duration=60.0,
            attack=AttackSpec(
                program="lock", length=0.2, interval=2.5,
                intensity=0.4, jitter=0.1,
            ),
        )
        result = run_controller(
            scenario, goals=ControlGoals(rt_target=1.0)
        )
        assert result.history
        first, last = result.history[0], result.history[-1]
        assert (
            last.intensity > first.intensity
            or last.length > first.length
            or last.interval < first.interval
        )
        assert "MemCA-BE commander trajectory" in result.render()
