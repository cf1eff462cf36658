"""Unit tests for tiers, requests, and TCP retransmission policy."""

import pytest

from repro.hardware import Host, MemorySubsystem, VirtualMachine
from repro.ntier import (
    DEFAULT_TCP,
    NTierApplication,
    Request,
    RetransmissionPolicy,
    Tier,
    TierOverflowError,
)
from repro.sim import Interrupt, Simulator


def make_vm(sim, name, vcpus=1):
    host = Host(f"host-{name}")
    mem = MemorySubsystem(host)
    vm = VirtualMachine(sim, name, vcpus=vcpus)
    vm.attach(host, mem, package=0)
    return vm


@pytest.fixture
def sim():
    return Simulator()


class TestRequest:
    def test_demand_lookup(self):
        r = Request(rid=1, page="p", demands={"apache": 0.1})
        assert r.demand("apache") == 0.1
        assert r.demand("mysql") == 0.0
        assert r.visits("apache") and not r.visits("mysql")

    def test_response_time_requires_completion(self):
        r = Request(rid=1, page="p", demands={})
        assert r.response_time is None
        r.t_first_attempt = 1.0
        r.t_done = 3.5
        assert r.response_time == 2.5

    def test_tier_response_time_sums_spans(self):
        r = Request(rid=1, page="p", demands={})
        r.record_span("apache", 0.0, 1.0)
        r.record_span("apache", 2.0, 2.5)
        assert r.tier_response_time("apache") == 1.5
        assert r.tier_response_time("mysql") is None


class TestRetransmissionPolicy:
    def test_default_is_rfc6298(self):
        assert DEFAULT_TCP.min_rto == 1.0
        assert DEFAULT_TCP.backoff == 2.0

    def test_timeouts_double(self):
        assert RetransmissionPolicy(max_retries=4).schedule == (
            1.0,
            2.0,
            4.0,
            8.0,
        )

    def test_timeouts_capped(self):
        policy = RetransmissionPolicy(max_retries=8, max_rto=4.0)
        assert max(policy.schedule) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetransmissionPolicy(min_rto=0.0)
        with pytest.raises(ValueError):
            RetransmissionPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetransmissionPolicy(max_rto=0.5)
        with pytest.raises(ValueError):
            RetransmissionPolicy(max_retries=-1)


class TestTier:
    def test_single_tier_serves_request(self, sim):
        tier = Tier(sim, "web", make_vm(sim, "web"), concurrency=2,
                    net_delay=0.0)
        request = Request(rid=1, page="p", demands={"web": 0.5})

        def client(sim):
            yield from tier.handle(request)

        sim.process(client(sim))
        sim.run()
        assert request.tier_response_time("web") == pytest.approx(0.5)
        assert tier.completions == 1

    def test_overflow_raises_and_counts(self, sim):
        tier = Tier(sim, "web", make_vm(sim, "web"), concurrency=1,
                    max_backlog=0, net_delay=0.0)
        blocker = Request(rid=1, page="p", demands={"web": 10.0})
        rejected = Request(rid=2, page="p", demands={"web": 0.1})
        outcome = {}

        def first(sim):
            yield from tier.handle(blocker)

        def second(sim):
            yield 0.1
            try:
                yield from tier.handle(rejected)
            except TierOverflowError as exc:
                outcome["tier"] = exc.tier

        sim.process(first(sim))
        sim.process(second(sim))
        sim.run()
        assert outcome["tier"] == "web"
        assert tier.drops == 1

    def test_synchronous_chain_spans_nest(self, sim):
        front = Tier(sim, "front", make_vm(sim, "front"), concurrency=4,
                     net_delay=0.0)
        back = Tier(sim, "back", make_vm(sim, "back"), concurrency=2,
                    net_delay=0.0)
        front.downstream = back
        request = Request(
            rid=1, page="p", demands={"front": 0.2, "back": 0.4}
        )

        def client(sim):
            yield from front.handle(request)

        sim.process(client(sim))
        sim.run()
        front_rt = request.tier_response_time("front")
        back_rt = request.tier_response_time("back")
        assert front_rt == pytest.approx(0.6)
        assert back_rt == pytest.approx(0.4)
        assert front_rt > back_rt  # nesting: upstream includes downstream

    def test_thread_held_during_downstream_call(self, sim):
        front = Tier(sim, "front", make_vm(sim, "front"), concurrency=1,
                     max_backlog=0, net_delay=0.0)
        back = Tier(sim, "back", make_vm(sim, "back"), concurrency=1,
                    net_delay=0.0)
        front.downstream = back
        slow = Request(rid=1, page="p", demands={"front": 0.0, "back": 5.0})
        outcome = {}

        def first(sim):
            yield from front.handle(slow)

        def second(sim):
            yield 1.0
            try:
                yield from front.handle(
                    Request(rid=2, page="p", demands={"front": 0.1})
                )
                outcome["served"] = True
            except TierOverflowError:
                outcome["served"] = False

        sim.process(first(sim))
        sim.process(second(sim))
        sim.run()
        # The front thread was pinned by the slow downstream call.
        assert outcome["served"] is False

    def test_request_skips_unvisited_downstream(self, sim):
        front = Tier(sim, "front", make_vm(sim, "front"), concurrency=1,
                     net_delay=0.0)
        back = Tier(sim, "back", make_vm(sim, "back"), concurrency=1,
                    net_delay=0.0)
        front.downstream = back
        static = Request(rid=1, page="static", demands={"front": 0.1})

        def client(sim):
            yield from front.handle(static)

        sim.process(client(sim))
        sim.run()
        assert back.arrivals == 0
        assert static.tier_response_time("back") is None

    def test_queue_length_clips_at_admission_capacity(self, sim):
        tier = Tier(sim, "web", make_vm(sim, "web"), concurrency=2,
                    net_delay=0.0)
        for rid in range(5):
            sim.process(
                tier.handle(
                    Request(rid=rid, page="p", demands={"web": 10.0})
                )
            )
        sim.run(until=0.1)
        assert tier.occupancy == 5
        assert tier.queue_length == 2  # clipped at concurrency

    def test_net_delay_adds_latency(self, sim):
        front = Tier(sim, "front", make_vm(sim, "front"), concurrency=1,
                     net_delay=0.01)
        back = Tier(sim, "back", make_vm(sim, "back"), concurrency=1,
                    net_delay=0.0)
        front.downstream = back
        request = Request(rid=1, page="p", demands={"front": 0.0,
                                                    "back": 0.1})

        def client(sim):
            yield from front.handle(request)

        sim.process(client(sim))
        sim.run()
        assert request.tier_response_time("front") == pytest.approx(0.12)

    def test_work_split_validated(self, sim):
        with pytest.raises(ValueError):
            Tier(sim, "web", make_vm(sim, "w2"), concurrency=1,
                 work_split=1.5)


class TestTierAdmit:
    """``admit`` is the synchronous half of a visit; ``serve`` the rest."""

    def test_drop_counts_once_and_holds_nothing(self, sim):
        tier = Tier(sim, "web", make_vm(sim, "web"), concurrency=1,
                    max_backlog=0, net_delay=0.0)
        held = tier.admit(Request(rid=1, page="p", demands={"web": 1.0}))
        assert held is not None
        assert tier.admit(Request(rid=2, page="p", demands={})) is None
        assert (tier.arrivals, tier.drops, tier.completions) == (2, 1, 0)
        assert tier.pool.users == {held: None}
        assert not tier.pool.queue
        assert tier.pool.total_rejections == 1

    def test_admitted_token_is_served(self, sim):
        tier = Tier(sim, "web", make_vm(sim, "web"), concurrency=1,
                    net_delay=0.0)
        request = Request(rid=1, page="p", demands={"web": 0.5})

        def client(sim):
            token = tier.admit(request)
            yield from tier.serve(request, token)

        sim.process(client(sim))
        sim.run()
        assert (tier.arrivals, tier.completions) == (1, 1)
        assert request.tier_response_time("web") == pytest.approx(0.5)
        assert tier.pool.in_use == 0

    def test_interrupt_while_queued_cancels_the_token(self, sim):
        from repro.ntier import fetch

        tier = Tier(sim, "web", make_vm(sim, "web"), concurrency=1,
                    max_backlog=4, net_delay=0.0)
        app = NTierApplication(sim, [tier])
        blocker = Request(rid=1, page="p", demands={"web": 1.0})
        waiter = Request(rid=2, page="p", demands={"web": 0.1})
        outcome = {}

        def first(sim):
            yield from fetch(sim, app, blocker)

        def second(sim):
            try:
                yield from fetch(sim, app, waiter)
            except Interrupt:
                outcome["interrupted"] = sim.now

        def killer(sim, victim):
            yield 0.5
            assert tier.pool.queued == 1
            victim.interrupt("abort")

        sim.process(first(sim))
        victim = sim.process(second(sim))
        sim.process(killer(sim, victim))
        sim.run()
        assert outcome == {"interrupted": pytest.approx(0.5)}
        assert tier.pool.queued == 0
        assert tier.pool.in_use == 0
        assert (tier.arrivals, tier.drops, tier.completions) == (2, 0, 1)

