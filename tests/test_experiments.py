"""Tests of the experiment harness on fast, scaled-down scenarios."""

from dataclasses import replace

import pytest

from repro.experiments import (
    EC2_CLOUD,
    MODEL_3TIER,
    PRIVATE_CLOUD,
    ModelScenario,
    RubbosScenario,
    make_attack_program,
    measure_bandwidth_scenario,
    model_system,
    run_fig3,
    run_fig6,
    run_fig7,
    run_model,
    run_rubbos,
)
from repro.core import MemoryBusSaturation, MemoryLockAttack
from repro.model import AttackBurst
from tests import _claims as claims


#: A short RUBBoS scenario for tests (same structure, less wall time).
FAST_RUBBOS = replace(
    PRIVATE_CLOUD,
    name="test-fast",
    users=500,
    think_time=1.4,
    duration=16.0,
    warmup=4.0,
    apache_threads=40,
    apache_backlog=8,
    tomcat_threads=20,
    mysql_connections=6,
)

FAST_MODEL = replace(MODEL_3TIER, duration=14.0, warmup=2.0)


class TestConfigs:
    def test_presets_satisfy_condition1(self):
        for scenario in (PRIVATE_CLOUD, EC2_CLOUD):
            sizes = (
                scenario.apache_threads,
                scenario.tomcat_threads,
                scenario.mysql_connections,
            )
            assert sizes[0] > sizes[1] > sizes[2]

    def test_model_system_reflects_scenario(self):
        system = model_system(MODEL_3TIER)
        assert system.n == 3
        assert system.back.capacity == MODEL_3TIER.service_rates[-1]
        assert system.check_condition1()

    def test_make_attack_program(self):
        lock = make_attack_program("lock", 20000.0)
        saturate = make_attack_program("saturate", 20000.0)
        assert isinstance(lock, MemoryLockAttack)
        assert isinstance(saturate, MemoryBusSaturation)
        assert saturate.stream_bandwidth_mbps == 20000.0
        with pytest.raises(ValueError):
            make_attack_program("rowhammer", 1.0)


class TestFig3Harness:
    def test_bandwidth_scenario_validation(self):
        with pytest.raises(ValueError):
            measure_bandwidth_scenario(0, "none", "same-package")
        with pytest.raises(ValueError):
            measure_bandwidth_scenario(1, "rowhammer", "same-package")
        with pytest.raises(ValueError):
            measure_bandwidth_scenario(1, "none", "everywhere")

    def test_fig3_reproduces_section3_findings(self):
        result = run_fig3(max_vms=4)
        assert claims.finding1_single_attacker_insufficient(result)
        assert claims.finding2_decreases_with_vms(result, "same-package")
        assert claims.finding2_decreases_with_vms(result, "random-package")
        assert claims.finding3_lock_beats_saturation(result)

    def test_fig3_render_is_table(self):
        text = run_fig3(max_vms=3).render()
        assert "same-package" in text and "lock" in text


class TestModelRuns:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            run_model(FAST_MODEL, "asynchronous")

    def test_tandem_mode_never_drops(self):
        run = run_model(FAST_MODEL, "tandem")
        assert run.app.front.drops == 0
        assert len(run.app.completed) > 1000

    def test_finite_mode_drops_under_bursts(self):
        run = run_model(FAST_MODEL, "attack-finite")
        assert run.app.front.drops > 0

    def test_infinite_front_mode_amplifies_without_drops(self):
        run = run_model(FAST_MODEL, "attack-infinite-front")
        assert run.app.front.drops == 0

    def test_attacker_runs_on_schedule(self):
        run = run_model(FAST_MODEL, "attack-finite")
        expected = FAST_MODEL.duration / FAST_MODEL.burst.I
        assert len(run.attacker.bursts) == pytest.approx(expected, abs=2)


class TestFig6Fig7:
    def test_fig6_cross_tier_overflow(self):
        result = run_fig6(FAST_MODEL, burst_index=2)
        assert claims.overflow_propagates(result)
        assert claims.tandem_confined_to_back(result)

    def test_fig6_insufficient_bursts_rejected(self):
        with pytest.raises(ValueError):
            run_fig6(FAST_MODEL, burst_index=99)

    def test_fig7_three_claims(self):
        result = run_fig7(FAST_MODEL)
        assert claims.tandem_curves_overlap(result)
        assert claims.amplification_without_drops(result)
        assert claims.finite_queues_worst_for_clients(result)
        text = result.render()
        assert "Fig 7a" in text and "Fig 7c" in text


class TestRubbosRunner:
    def test_run_produces_monitors_and_requests(self):
        run = run_rubbos(FAST_RUBBOS)
        assert set(run.util_monitors) == {"apache", "tomcat", "mysql"}
        assert len(run.client_requests()) > 500
        assert run.attack is not None
        assert len(run.attack.attacker.bursts) >= 4

    def test_no_attack_scenario(self):
        quiet = replace(FAST_RUBBOS, attack=None)
        run = run_rubbos(quiet)
        assert run.attack is None
        assert run.app.front.drops == 0

    def test_llc_collection_optional(self):
        run = run_rubbos(FAST_RUBBOS, collect_llc=True)
        assert run.llc_profiler is not None
        assert len(run.llc_profiler.series) > 100
