"""Unit tests for MemCA: programs, bursts, FE/BE, orchestration."""

import numpy as np
import pytest

from repro.cloud import CloudDeployment, rubbos_3tier
from repro.core import (
    Commander,
    ControlGoals,
    MemCAAttack,
    MemCAFrontend,
    MemoryBusSaturation,
    MemoryLockAttack,
    OnOffAttacker,
)
from repro.hardware import Host, MemoryActivity, MemorySubsystem, XEON_E5_2603_V3
from repro.ntier import OpenLoopProber, Request
from repro.sim import Simulator

B = XEON_E5_2603_V3.mem_bandwidth_mbps


@pytest.fixture
def host_mem():
    host = Host("h", XEON_E5_2603_V3)
    mem = MemorySubsystem(host)
    host.place("adversary", package=0)
    return host, mem


class TestPrograms:
    def test_saturation_activity_scales_with_intensity(self):
        program = MemoryBusSaturation(stream_bandwidth_mbps=B)
        full = program.activity("adversary", 1.0)
        half = program.activity("adversary", 0.5)
        assert full.demand_mbps == B
        assert half.demand_mbps == B / 2
        assert full.thrashes_llc

    def test_lock_activity_scales_duty(self):
        program = MemoryLockAttack(max_lock_duty=0.9)
        full = program.activity("adversary", 1.0)
        half = program.activity("adversary", 0.5)
        assert full.lock_duty == pytest.approx(0.9)
        assert half.lock_duty == pytest.approx(0.45)
        assert not full.thrashes_llc

    def test_intensity_bounds(self):
        program = MemoryLockAttack()
        with pytest.raises(ValueError):
            program.activity("adversary", 0.0)
        with pytest.raises(ValueError):
            program.activity("adversary", 1.5)


class TestOnOffAttacker:
    def test_bursts_follow_schedule(self, host_mem):
        host, mem = host_mem
        sim = Simulator()
        attacker = OnOffAttacker(
            sim, mem, "adversary", MemoryLockAttack(),
            length=0.5, interval=2.0,
        )
        attacker.start()
        sim.run(until=10.0)
        assert 4 <= len(attacker.bursts) <= 5
        for burst in attacker.bursts:
            assert burst.length == pytest.approx(0.5)

    def test_activity_present_only_during_burst(self, host_mem):
        host, mem = host_mem
        sim = Simulator()
        attacker = OnOffAttacker(
            sim, mem, "adversary", MemoryLockAttack(),
            length=0.5, interval=2.0,
        )
        attacker.start()
        sim.run(until=1.6)  # first OFF period is 1.5 s
        assert mem.activity_of("adversary") is not None
        sim.run(until=2.1)
        assert mem.activity_of("adversary") is None

    def test_stop_halts_future_bursts(self, host_mem):
        host, mem = host_mem
        sim = Simulator()
        attacker = OnOffAttacker(
            sim, mem, "adversary", MemoryLockAttack(),
            length=0.1, interval=1.0,
        )
        attacker.start()
        sim.call_in(2.5, attacker.stop)
        sim.run(until=10.0)
        count = len(attacker.bursts)
        assert count <= 3
        assert mem.activity_of("adversary") is None

    def test_parameter_change_applies_next_burst(self, host_mem):
        host, mem = host_mem
        sim = Simulator()
        attacker = OnOffAttacker(
            sim, mem, "adversary", MemoryLockAttack(),
            length=0.1, interval=1.0,
        )
        attacker.start()

        def retune():
            attacker.length = 0.3

        sim.call_in(1.5, retune)
        sim.run(until=5.0)
        lengths = [round(b.length, 3) for b in attacker.bursts]
        assert 0.1 in lengths and 0.3 in lengths

    def test_jitter_varies_intervals(self, host_mem):
        host, mem = host_mem
        sim = Simulator()
        attacker = OnOffAttacker(
            sim, mem, "adversary", MemoryLockAttack(),
            length=0.1, interval=1.0, jitter=0.3,
            rng=np.random.default_rng(5),
        )
        attacker.start()
        sim.run(until=20.0)
        starts = [b.start for b in attacker.bursts]
        gaps = np.diff(starts)
        assert np.std(gaps) > 0.01

    def test_validation(self, host_mem):
        host, mem = host_mem
        sim = Simulator()
        with pytest.raises(ValueError):
            OnOffAttacker(sim, mem, "adversary", MemoryLockAttack(),
                          length=0.0, interval=1.0)
        with pytest.raises(ValueError):
            OnOffAttacker(sim, mem, "adversary", MemoryLockAttack(),
                          length=1.0, interval=0.5)
        with pytest.raises(ValueError):
            OnOffAttacker(sim, mem, "adversary", MemoryLockAttack(),
                          length=0.1, interval=1.0, jitter=1.5)

    def test_mean_execution_time_reporting(self, host_mem):
        host, mem = host_mem
        sim = Simulator()
        attacker = OnOffAttacker(
            sim, mem, "adversary", MemoryLockAttack(),
            length=0.2, interval=1.0,
        )
        attacker.start()
        assert attacker.mean_execution_time() is None
        sim.run(until=5.0)
        assert attacker.mean_execution_time() == pytest.approx(0.2)
        assert attacker.duty_cycle == pytest.approx(0.2)


class TestFrontend:
    def _frontend(self, host_mem):
        host, mem = host_mem
        sim = Simulator()
        attacker = OnOffAttacker(
            sim, mem, "adversary", MemoryLockAttack(),
            length=0.2, interval=1.0,
        )
        return sim, mem, MemCAFrontend(sim, [attacker])

    def test_requires_attackers(self):
        with pytest.raises(ValueError):
            MemCAFrontend(Simulator(), [])

    def test_set_parameters_validates(self, host_mem):
        sim, mem, frontend = self._frontend(host_mem)
        with pytest.raises(ValueError):
            frontend.set_parameters(length=2.0)  # exceeds interval
        with pytest.raises(ValueError):
            frontend.set_parameters(intensity=0.0)
        frontend.set_parameters(length=0.5, interval=3.0, intensity=0.7)
        attacker = frontend.attackers[0]
        assert (attacker.length, attacker.interval, attacker.intensity) == (
            0.5, 3.0, 0.7,
        )

    def test_report_counts_bursts(self, host_mem):
        sim, mem, frontend = self._frontend(host_mem)
        frontend.start()
        sim.run(until=5.0)
        report = frontend.report()
        assert report.bursts >= 4
        assert report.mean_execution_time == pytest.approx(0.2)


class TestControlGoals:
    def test_defaults_match_paper(self):
        goals = ControlGoals()
        assert goals.rt_target == 1.0
        assert goals.quantile == 95.0
        assert goals.stealth_limit == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlGoals(rt_target=0.0)
        with pytest.raises(ValueError):
            ControlGoals(quantile=100.0)
        with pytest.raises(ValueError):
            ControlGoals(overshoot=0.9)


class TestMemCAAttack:
    def _deployment(self, sim):
        return CloudDeployment(
            sim,
            rubbos_3tier(
                apache_threads=20,
                apache_backlog=4,
                tomcat_threads=10,
                mysql_connections=4,
            ),
        )

    def test_launch_co_locates_and_bursts(self):
        sim = Simulator()
        deployment = self._deployment(sim)
        attack = MemCAAttack(sim, deployment, length=0.2, interval=1.0)
        attack.launch()
        with pytest.raises(RuntimeError):
            attack.launch()
        sim.run(until=5.0)
        assert "adversary" in deployment.hosts["mysql"].placements
        assert len(attack.attacker.bursts) >= 4

    def test_effect_requires_launch(self):
        sim = Simulator()
        attack = MemCAAttack(sim, self._deployment(sim))
        with pytest.raises(RuntimeError):
            attack.effect()

    def test_feedback_requires_launch(self):
        sim = Simulator()
        attack = MemCAAttack(sim, self._deployment(sim))
        with pytest.raises(RuntimeError):
            attack.enable_feedback(lambda rid: None)

    def test_effect_measures_bursts_and_utilization(self):
        sim = Simulator()
        deployment = self._deployment(sim)
        attack = MemCAAttack(sim, deployment, length=0.2, interval=1.0)
        attack.launch()
        sim.run(until=10.0)
        effect = attack.effect()
        assert effect.bursts >= 9
        assert effect.mean_burst_length == pytest.approx(0.2, abs=0.01)
        assert effect.requests == 0  # no workload attached
        assert effect.avg_bottleneck_utilization is not None

    def test_victim_cpu_degrades_during_burst(self):
        sim = Simulator()
        deployment = self._deployment(sim)
        attack = MemCAAttack(sim, deployment, length=0.5, interval=2.0)
        attack.launch()
        mysql = deployment.vm("mysql")
        sim.run(until=1.6)  # during first burst
        assert mysql.cpu.speed < 0.2
        sim.run(until=2.1)  # after it
        assert mysql.cpu.speed == pytest.approx(1.0)


class TestCommander:
    def _setup(self, goals=ControlGoals()):
        sim = Simulator()
        deployment = CloudDeployment(
            sim,
            rubbos_3tier(
                apache_threads=20,
                apache_backlog=4,
                tomcat_threads=10,
                mysql_connections=4,
            ),
        )
        memory = deployment.co_locate_adversary("mysql")
        attacker = OnOffAttacker(
            sim, memory, "adversary", MemoryLockAttack(),
            length=0.2, interval=2.0, intensity=0.4,
        )
        frontend = MemCAFrontend(sim, [attacker])
        rng = np.random.default_rng(6)
        factory = lambda rid: Request(
            rid=rid, page="probe",
            demands={"apache": 1e-4, "tomcat": 2e-4, "mysql": 5e-4},
        )
        prober = OpenLoopProber(sim, deployment.app, factory, rate=5.0,
                                rng=rng)
        commander = Commander(
            sim, frontend, prober, goals=goals, epoch=2.0
        )
        return sim, frontend, prober, commander

    def test_insufficient_samples_hold(self):
        sim, frontend, prober, commander = self._setup()
        commander.start()  # prober not started: zero samples
        frontend.start()
        sim.run(until=5.0)
        assert all(
            "insufficient" in e.action for e in commander.history
        )

    def test_escalates_when_below_target(self):
        sim, frontend, prober, commander = self._setup()
        frontend.start()
        prober.start()
        commander.start()
        sim.run(until=20.0)
        # Fast probes return in ms; far below the 1 s target.
        intensities = [e.intensity for e in commander.history]
        assert intensities[-1] > intensities[0]
        assert any("escalate" in e.action for e in commander.history)

    def test_deescalates_when_far_above_target(self):
        goals = ControlGoals(rt_target=1e-4, overshoot=1.01)
        sim, frontend, prober, commander = self._setup(goals)
        frontend.start()
        prober.start()
        commander.start()
        sim.run(until=20.0)
        assert any("deescalate" in e.action for e in commander.history)

    def test_history_records_filtered_estimates(self):
        sim, frontend, prober, commander = self._setup()
        frontend.start()
        prober.start()
        commander.start()
        sim.run(until=10.0)
        measured = [
            e for e in commander.history if e.measured_rt is not None
        ]
        assert measured
        assert all(e.filtered_rt is not None for e in measured)
