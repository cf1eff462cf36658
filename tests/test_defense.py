"""Unit and integration tests for migration and the defense loop."""

import pytest

from repro.cloud import (
    CloudDeployment,
    DeploymentConfig,
    MillibottleneckDefense,
    TierConfig,
)
from repro.core import MemCAAttack, MemoryLockAttack, OnOffAttacker
from repro.hardware import (
    Host,
    MemoryActivity,
    MemorySubsystem,
    VirtualMachine,
    XEON_E5_2603_V3,
)
from repro.ntier import UserPopulation
from repro.sim import RandomStreams, Simulator
from repro.workload import RubbosWorkload


class TestVmMigration:
    def _attacked_vm(self, sim):
        host = Host("h1", XEON_E5_2603_V3)
        mem = MemorySubsystem(host)
        vm = VirtualMachine(sim, "db", vcpus=1, mem_demand_mbps=2000.0)
        vm.attach(host, mem, package=0)
        host.place("adversary", package=0)
        mem.set_activity(
            MemoryActivity("adversary", demand_mbps=50.0, lock_duty=0.9)
        )
        return host, mem, vm

    def test_migrate_escapes_contention(self):
        sim = Simulator()
        host, mem, vm = self._attacked_vm(sim)
        assert vm.cpu.speed < 0.2
        new_host = Host("h2", XEON_E5_2603_V3)
        new_mem = MemorySubsystem(new_host)
        vm.migrate(new_host, new_mem, package=0, downtime=0.3)
        assert vm.cpu.speed == 0.0  # frozen during stop-and-copy
        sim.run(until=0.5)
        assert vm.cpu.speed == pytest.approx(1.0)
        assert vm.host is new_host
        assert "db" not in host.placements

    def test_migrate_zero_downtime(self):
        sim = Simulator()
        host, mem, vm = self._attacked_vm(sim)
        new_host = Host("h2", XEON_E5_2603_V3)
        vm.migrate(new_host, MemorySubsystem(new_host), downtime=0.0)
        assert vm.cpu.speed == pytest.approx(1.0)

    def test_migrate_unplaced_rejected(self):
        sim = Simulator()
        vm = VirtualMachine(sim, "db")
        with pytest.raises(ValueError):
            vm.migrate(Host("h"), MemorySubsystem(Host("h2")))

    def test_old_host_contention_no_longer_bites(self):
        sim = Simulator()
        host, mem, vm = self._attacked_vm(sim)
        new_host = Host("h2", XEON_E5_2603_V3)
        vm.migrate(new_host, MemorySubsystem(new_host), downtime=0.0)
        # Escalate contention on the old host: must not affect the VM.
        mem.set_activity(
            MemoryActivity("adversary", demand_mbps=50.0, lock_duty=0.95)
        )
        assert vm.cpu.speed == pytest.approx(1.0)

    def test_host_remove_cleans_pinning(self):
        host = Host("h", XEON_E5_2603_V3)
        host.place("vm", package=1)
        host.remove("vm")
        assert "vm" not in host.placements
        assert "vm" not in host.packages[1].pinned_vms


class TestAttackerRetarget:
    def test_retarget_moves_live_activity(self):
        sim = Simulator()
        host1 = Host("h1", XEON_E5_2603_V3)
        mem1 = MemorySubsystem(host1)
        host2 = Host("h2", XEON_E5_2603_V3)
        mem2 = MemorySubsystem(host2)
        for host in (host1, host2):
            host.place("adversary", package=0)
        attacker = OnOffAttacker(
            sim, mem1, "adversary", MemoryLockAttack(),
            length=1.0, interval=2.0,
        )
        attacker.start()
        sim.run(until=1.5)  # mid-burst (OFF period is 1 s)
        assert mem1.activity_of("adversary") is not None
        attacker.retarget(mem2)
        assert mem1.activity_of("adversary") is None
        assert mem2.activity_of("adversary") is not None
        sim.run(until=2.1)  # burst ends: cleared from the new target
        assert mem2.activity_of("adversary") is None

    def test_retarget_same_memory_is_noop(self):
        sim = Simulator()
        host = Host("h1", XEON_E5_2603_V3)
        mem = MemorySubsystem(host)
        host.place("adversary", package=0)
        attacker = OnOffAttacker(
            sim, mem, "adversary", MemoryLockAttack(),
            length=0.5, interval=2.0,
        )
        attacker.retarget(mem)
        assert attacker.memory is mem


class TestMultiVmAttacker:
    def test_all_adversaries_burst_together(self):
        sim = Simulator()
        host = Host("h", XEON_E5_2603_V3)
        mem = MemorySubsystem(host)
        names = ["adv-1", "adv-2", "adv-3"]
        for name in names:
            host.place(name, package=0)
        attacker = OnOffAttacker(
            sim, mem, names, MemoryLockAttack(),
            length=0.5, interval=2.0,
        )
        attacker.start()
        sim.run(until=1.6)
        assert all(mem.activity_of(n) is not None for n in names)
        sim.run(until=2.1)
        assert all(mem.activity_of(n) is None for n in names)

    def test_empty_name_list_rejected(self):
        sim = Simulator()
        host = Host("h")
        mem = MemorySubsystem(host)
        with pytest.raises(ValueError):
            OnOffAttacker(sim, mem, [], MemoryLockAttack())

    def test_attack_with_multiple_adversaries(self):
        sim = Simulator()
        deployment = CloudDeployment(
            sim,
            DeploymentConfig(
                tiers=(
                    TierConfig("web", vcpus=1, concurrency=8,
                               max_backlog=2),
                )
            ),
        )
        attack = MemCAAttack(
            sim, deployment, adversaries=3, length=0.2, interval=1.0
        )
        attack.launch()
        host = deployment.hosts["web"]
        assert sum(
            1 for name in host.placements if name.startswith("adversary-")
        ) == 3
        sim.run(until=3.0)
        assert len(attack.attacker.bursts) >= 2


class TestMillibottleneckDefense:
    def _defended_system(self, episodes_to_trigger=4):
        sim = Simulator()
        deployment = CloudDeployment(
            sim,
            DeploymentConfig(
                tiers=(
                    TierConfig("apache", vcpus=2, concurrency=24,
                               max_backlog=4),
                    TierConfig("tomcat", vcpus=2, concurrency=12),
                    TierConfig("mysql", vcpus=2, concurrency=4),
                )
            ),
        )
        streams = RandomStreams(5)
        workload = RubbosWorkload(
            rng=streams.get("workload"), demand_scale=3.0
        )
        UserPopulation(
            sim, deployment.app, workload.make_request,
            users=150, think_time=1.1, rng=streams.get("users"),
        ).start()
        attack = MemCAAttack(sim, deployment, length=0.4, interval=2.0)
        attack.launch()
        victim = deployment.vm("mysql")
        defense = MillibottleneckDefense(
            sim, victim,
            episodes_to_trigger=episodes_to_trigger,
            cooldown=10.0,
        )
        defense.start()
        return sim, deployment, attack, defense

    def test_defense_triggers_and_restores_speed(self):
        sim, deployment, attack, defense = self._defended_system()
        sim.run(until=40.0)
        assert defense.triggered
        victim = deployment.vm("mysql")
        assert victim.host is not None
        assert victim.host.name.startswith("defense-host")
        # Attack bursts continue, but on the abandoned host.
        assert victim.cpu.speed == pytest.approx(1.0)

    def test_no_attack_no_migration(self):
        sim = Simulator()
        deployment = CloudDeployment(
            sim,
            DeploymentConfig(
                tiers=(TierConfig("mysql", vcpus=2, concurrency=4),)
            ),
        )
        streams = RandomStreams(6)
        workload = RubbosWorkload(
            rng=streams.get("workload"), demand_scale=3.0
        )
        UserPopulation(
            sim, deployment.app, workload.make_request,
            users=100, think_time=1.1, rng=streams.get("users"),
        ).start()
        defense = MillibottleneckDefense(
            sim, deployment.vm("mysql"), episodes_to_trigger=4
        )
        defense.start()
        sim.run(until=40.0)
        assert not defense.triggered

    def test_cooldown_limits_migration_rate(self):
        sim, deployment, attack, defense = self._defended_system(
            episodes_to_trigger=2
        )
        sim.run(until=30.0)
        times = [m.time for m in defense.migrations]
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= defense.cooldown

    def test_validation(self):
        sim = Simulator()
        host = Host("h", XEON_E5_2603_V3)
        mem = MemorySubsystem(host)
        vm = VirtualMachine(sim, "db")
        vm.attach(host, mem, package=0)
        with pytest.raises(ValueError):
            MillibottleneckDefense(sim, vm, episodes_to_trigger=0)
        with pytest.raises(ValueError):
            MillibottleneckDefense(sim, vm, min_episode=0.5,
                                   max_episode=0.1)
        unplaced = VirtualMachine(sim, "ghost")
        with pytest.raises(ValueError):
            MillibottleneckDefense(sim, unplaced)


class TestLatencyTriggeredDefense:
    """The live path: slo.violation topics drive the episode counter."""

    def _scenario(self, duration=20.0):
        from dataclasses import replace

        from repro.experiments.configs import PRIVATE_CLOUD

        return replace(
            PRIVATE_CLOUD, name="latency-defense-test", duration=duration
        )

    def test_unknown_trigger_rejected(self):
        from repro.experiments.defense import run_rubbos_with_defense

        with pytest.raises(ValueError):
            run_rubbos_with_defense(
                self._scenario(), None, 8, trigger="oracle"
            )

    def test_latency_trigger_no_later_than_utilization(self):
        """Acceptance gate: live detection beats the post-hoc loop."""
        from repro.experiments.defense import run_rubbos_with_defense

        scenario = self._scenario()
        firsts = {}
        for trigger in ("utilization", "latency"):
            run, defense, _ = run_rubbos_with_defense(
                scenario, None, 8, trigger=trigger
            )
            assert defense.triggered
            firsts[trigger] = defense.migrations[0].time
        assert firsts["latency"] <= firsts["utilization"]

    def test_latency_run_carries_telemetry(self):
        from repro.experiments.defense import run_rubbos_with_defense

        run, defense, _ = run_rubbos_with_defense(
            self._scenario(duration=12.0), None, 8, trigger="latency"
        )
        live = run.obs
        assert live is not None
        # Windows cover the full horizon and the detector emitted the
        # episodes the defense consumed.
        assert live.pipeline.reports[-1].end == 12.0
        assert len(live.detector.violations) >= len(defense.episodes)

    def test_stale_violations_ignored_after_migration(self):
        """A violation timestamped before the migration cannot re-arm."""
        from repro.cloud.defense import MillibottleneckDefense
        from repro.obs import EventBus

        sim = Simulator()
        host = Host("h", XEON_E5_2603_V3)
        mem = MemorySubsystem(host)
        vm = VirtualMachine(sim, "db", vcpus=1)
        vm.attach(host, mem, package=0)
        defense = MillibottleneckDefense(
            sim, vm, episodes_to_trigger=1, cooldown=0.0
        )
        bus = EventBus()
        defense.attach_bus(bus)
        sim.run(until=2.0)
        bus.publish("slo.violation", {"time": 2.0})
        assert len(defense.migrations) == 1
        # Replaying an old window (pre-migration close time) is stale.
        bus.publish("slo.violation", {"time": 1.0})
        assert len(defense.migrations) == 1
        assert defense.episodes == []
