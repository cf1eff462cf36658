"""Replication-harness tests and failure-injection invariants."""

import numpy as np
import pytest

from repro.analysis import Replication, format_replications, replicate
from repro.hardware import Host, MemorySubsystem, VirtualMachine
from repro.ntier import NTierApplication, Request, Tier, fetch
from repro.sim import Interrupt, RandomStreams, Simulator
from tests import _claims as claims


class TestReplicate:
    def test_aggregates_metrics_per_seed(self):
        replications = replicate(
            lambda seed: {"x": float(seed), "y": 2.0 * seed},
            seeds=(1, 2, 3),
        )
        assert replications["x"].mean == pytest.approx(2.0)
        assert replications["y"].values == (2.0, 4.0, 6.0)

    def test_ci_shrinks_with_more_seeds(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(10.0, 1.0, size=100)

        def metrics(seed):
            return {"m": float(draws[seed])}

        few = replicate(metrics, seeds=range(5))["m"]
        many = replicate(metrics, seeds=range(50))["m"]
        few_width = few.ci95[1] - few.ci95[0]
        many_width = many.ci95[1] - many.ci95[0]
        assert many_width < few_width

    def test_all_above_below(self):
        rep = Replication("m", seeds=(1, 2), values=(3.0, 4.0))
        assert claims.all_above(rep, 2.9)
        assert not claims.all_above(rep, 3.5)
        assert claims.all_below(rep, 4.1)

    def test_single_seed_degenerate(self):
        rep = Replication("m", seeds=(1,), values=(5.0,))
        assert rep.std == 0.0
        assert rep.ci95 == (5.0, 5.0)

    def test_mismatched_metrics_rejected(self):
        def metrics(seed):
            return {"a": 1.0} if seed == 1 else {"b": 1.0}

        with pytest.raises(ValueError):
            replicate(metrics, seeds=(1, 2))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda s: {"a": 1.0}, seeds=())

    def test_format_renders_all_metrics(self):
        replications = replicate(
            lambda seed: {"alpha": float(seed), "beta": 1.0},
            seeds=(1, 2),
        )
        text = format_replications(replications, title="T")
        assert "alpha" in text and "beta" in text and "95% CI" in text


def build_two_tier(sim):
    tiers = []
    for name, concurrency in (("front", 4), ("back", 2)):
        host = Host(f"h-{name}")
        mem = MemorySubsystem(host)
        vm = VirtualMachine(sim, name, vcpus=1)
        vm.attach(host, mem, package=0)
        tiers.append(
            Tier(sim, name, vm, concurrency=concurrency, net_delay=0.0)
        )
    return NTierApplication(sim, tiers)


class TestFailureInjection:
    def test_interrupted_requests_release_all_threads(self):
        """Killing in-flight requests must not leak pool slots."""
        sim = Simulator()
        app = build_two_tier(sim)
        processes = []
        for rid in range(12):
            request = Request(
                rid=rid, page="p",
                demands={"front": 0.01, "back": 10.0},
            )
            processes.append(
                sim.process(fetch(sim, app, request))
            )

        def assassin(sim):
            yield 0.5
            for process in processes:
                if not process.triggered:
                    process.interrupt("chaos")

        sim.process(assassin(sim))
        with pytest.raises(Interrupt):
            # The interrupts surface from unwaited processes; that is
            # expected — what matters is the cleanup below.
            sim.run(until=60.0)
        # Drain remaining interrupt deliveries.
        while True:
            try:
                sim.run(until=60.0)
                break
            except Interrupt:
                continue
        for tier in app.tiers:
            assert tier.pool.in_use == 0, tier.name
            assert tier.pool.queued == 0, tier.name

    def test_vm_crash_and_recovery(self):
        """A crashed (stalled) tier freezes requests; recovery drains."""
        sim = Simulator()
        app = build_two_tier(sim)
        back_cpu = app.tier("back").vm.cpu
        done = []

        def client(sim, rid):
            request = Request(
                rid=rid, page="p",
                demands={"front": 0.001, "back": 0.05},
            )
            yield from fetch(sim, app, request)
            done.append((rid, sim.now))

        for rid in range(4):
            sim.process(client(sim, rid))
        sim.call_in(0.01, lambda: back_cpu.set_speed(0.0))  # crash
        sim.call_in(5.0, lambda: back_cpu.set_speed(1.0))  # recover
        sim.run(until=20.0)
        assert len(done) == 4
        assert all(t > 5.0 for _rid, t in done)  # all waited out the crash

    def test_attacker_stop_mid_burst_clears_activity(self):
        from repro.core import MemoryLockAttack, OnOffAttacker

        sim = Simulator()
        host = Host("h")
        mem = MemorySubsystem(host)
        host.place("adversary", package=0)
        attacker = OnOffAttacker(
            sim, mem, "adversary", MemoryLockAttack(),
            length=1.0, interval=2.0,
        )
        attacker.start()
        sim.run(until=1.5)  # mid-burst
        assert mem.activity_of("adversary") is not None
        attacker.stop()
        sim.run(until=2.5)
        assert mem.activity_of("adversary") is None
        bursts_after_stop = len(attacker.bursts)
        sim.run(until=10.0)
        assert len(attacker.bursts) == bursts_after_stop
