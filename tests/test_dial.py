"""Tests for replicated tiers and the DIAL balancer."""

import numpy as np
import pytest

from repro.cloud import DialBalancer
from repro.hardware import Host, MemoryActivity, MemorySubsystem, VirtualMachine
from repro.ntier import (
    NTierApplication,
    ReplicatedTier,
    Request,
    Tier,
    fetch,
)
from repro.sim import Simulator


def make_tier(sim, name, concurrency=4, vcpus=1):
    host = Host(f"h-{name}")
    memory = MemorySubsystem(host)
    vm = VirtualMachine(sim, name, vcpus=vcpus)
    vm.attach(host, memory, package=0)
    return Tier(sim, name, vm, concurrency=concurrency, net_delay=0.0), memory


@pytest.fixture
def replicated_system():
    sim = Simulator()
    replica_a, memory_a = make_tier(sim, "db")
    replica_b, _memory_b = make_tier(sim, "db")
    tier = ReplicatedTier(
        sim, "db", [replica_a, replica_b],
        rng=np.random.default_rng(1),
    )
    app = NTierApplication(sim, [tier])
    return sim, app, tier, memory_a


def drive(sim, app, n, demand=0.01, gap=0.02):
    def client(sim):
        for rid in range(n):
            request = Request(rid=rid, page="p", demands={"db": demand})
            yield from fetch(sim, app, request)
            yield gap

    sim.process(client(sim))


class TestReplicatedTier:
    def test_even_dispatch_by_default(self, replicated_system):
        sim, app, tier, _memory = replicated_system
        drive(sim, app, 400)
        sim.run()
        share = tier.dispatched[0] / sum(tier.dispatched)
        assert share == pytest.approx(0.5, abs=0.1)

    def test_weights_steer_dispatch(self, replicated_system):
        sim, app, tier, _memory = replicated_system
        tier.set_weights([0.9, 0.1])
        drive(sim, app, 400)
        sim.run()
        share = tier.dispatched[0] / sum(tier.dispatched)
        assert share == pytest.approx(0.9, abs=0.1)

    def test_latency_tracking(self, replicated_system):
        sim, app, tier, _memory = replicated_system
        drive(sim, app, 50)
        sim.run()
        assert all(e is not None and e > 0 for e in tier.latency_ewma)
        windows = tier.drain_windows()
        assert sum(len(w) for w in windows) == 50
        assert tier.drain_windows() == [[], []]

    def test_aggregate_counters(self, replicated_system):
        sim, app, tier, _memory = replicated_system
        drive(sim, app, 30)
        sim.run()
        assert tier.arrivals == 30
        assert tier.completions == 30
        assert tier.drops == 0
        assert tier.concurrency == 8

    def test_weight_validation(self, replicated_system):
        _sim, _app, tier, _memory = replicated_system
        with pytest.raises(ValueError):
            tier.set_weights([1.0])
        with pytest.raises(ValueError):
            tier.set_weights([-1.0, 2.0])
        with pytest.raises(ValueError):
            tier.set_weights([0.0, 0.0])

    def test_replicas_must_carry_the_tier_name(self):
        sim = Simulator()
        replica, _ = make_tier(sim, "db-a")
        with pytest.raises(ValueError, match="must carry the tier's name"):
            ReplicatedTier(sim, "db", [replica])

    def test_replica_drop_records_zero_latency_sample(self):
        sim = Simulator()
        replicas = [make_tier(sim, "db", concurrency=1)[0] for _ in "ab"]
        for replica in replicas:
            replica.pool.max_queue = 0
        tier = ReplicatedTier(
            sim, "db", replicas, rng=np.random.default_rng(1)
        )
        tier.set_weights([1.0, 0.0])
        app = NTierApplication(sim, [tier])
        blocker = Request(rid=1, page="p", demands={"db": 5.0})
        dropped = Request(rid=2, page="p", demands={"db": 0.1})

        def client(sim, request):
            yield from fetch(sim, app, request)

        sim.process(client(sim, blocker))
        sim.process(client(sim, dropped))
        sim.run(until=0.9)
        # The blocker holds replica 0; the client's attempt dropped
        # there at t=0 and waits out its RTO.
        assert tier.drops == 1
        assert dropped.drop_tiers == ["db"]
        assert tier.dispatched == [2, 0]
        windows = tier.drain_windows()
        assert windows == [[0.0], []]
        assert tier.latency_ewma == [0.0, None]

    def test_requires_replicas(self):
        with pytest.raises(ValueError):
            ReplicatedTier(Simulator(), "db", [])


class TestDialBalancer:
    def test_shifts_load_off_interfered_replica(self, replicated_system):
        sim, app, tier, memory_a = replicated_system
        balancer = DialBalancer(sim, tier, epoch=0.5)
        balancer.start()
        balancer.start()  # idempotent
        drive(sim, app, 2000, demand=0.005, gap=0.005)
        # Continuous lock contention on replica A's host.
        tier.replicas[0].vm.host.place("adversary", package=0)
        memory_a.set_activity(
            MemoryActivity("adversary", demand_mbps=50.0, lock_duty=0.9)
        )
        sim.run(until=15.0)
        weights = tier.weights
        assert weights[0] < 0.2
        assert weights[1] > 0.8
        assert balancer.history

    def test_recovers_after_interference_ends(self, replicated_system):
        sim, app, tier, memory_a = replicated_system
        balancer = DialBalancer(sim, tier, epoch=0.5)
        balancer.start()
        drive(sim, app, 4000, demand=0.005, gap=0.005)
        tier.replicas[0].vm.host.place("adversary", package=0)
        memory_a.set_activity(
            MemoryActivity("adversary", demand_mbps=50.0, lock_duty=0.9)
        )
        sim.call_in(8.0, lambda: memory_a.clear_activity("adversary"))
        sim.run(until=30.0)
        weights = tier.weights
        # The floor's probe trickle rehabilitated replica A.
        assert weights[0] > 0.3

    def test_quiet_system_stays_balanced(self, replicated_system):
        sim, app, tier, _memory = replicated_system
        balancer = DialBalancer(sim, tier, epoch=0.5)
        balancer.start()
        drive(sim, app, 1000, demand=0.005, gap=0.01)
        sim.run(until=12.0)
        weights = tier.weights
        assert weights[0] == pytest.approx(0.5, abs=0.15)

    def test_validation(self, replicated_system):
        sim, _app, tier, _memory = replicated_system
        with pytest.raises(ValueError):
            DialBalancer(sim, tier, epoch=0.0)
        with pytest.raises(ValueError):
            DialBalancer(sim, tier, sensitivity=0.0)
        with pytest.raises(ValueError):
            DialBalancer(sim, tier, min_weight=0.6)
