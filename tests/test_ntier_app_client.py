"""Unit tests for the assembled application and the client loops."""

import weakref

import numpy as np
import pytest

from repro.hardware import Host, MemorySubsystem, VirtualMachine
from repro.ntier import (
    ClosedLoopClient,
    NTierApplication,
    OpenLoopProber,
    Request,
    RetransmissionPolicy,
    Tier,
    UserPopulation,
    fetch,
)
from repro.sim import Simulator


def build_app(sim, concurrencies=(4, 2), backlog=0, demands=(0.01, 0.02)):
    names = [f"t{i}" for i in range(len(concurrencies))]
    tiers = []
    for index, (name, c) in enumerate(zip(names, concurrencies)):
        host = Host(f"h-{name}")
        mem = MemorySubsystem(host)
        vm = VirtualMachine(sim, name, vcpus=1)
        vm.attach(host, mem, package=0)
        tiers.append(
            Tier(
                sim,
                name,
                vm,
                concurrency=c,
                max_backlog=backlog if index == 0 else None,
                net_delay=0.0,
            )
        )
    app = NTierApplication(sim, tiers)
    demand_map = dict(zip(names, demands))
    return app, demand_map


@pytest.fixture
def sim():
    return Simulator()


class TestNTierApplication:
    def test_tiers_chained_front_to_back(self, sim):
        app, _ = build_app(sim)
        assert app.front.downstream is app.back
        assert app.back.downstream is None

    def test_tier_lookup(self, sim):
        app, _ = build_app(sim)
        assert app.tier("t0") is app.front
        with pytest.raises(KeyError):
            app.tier("nope")

    def test_empty_tier_list_rejected(self, sim):
        with pytest.raises(ValueError):
            NTierApplication(sim, [])

    def test_record_sorts_by_outcome(self, sim):
        app, _ = build_app(sim)
        ok = Request(rid=1, page="p", demands={})
        bad = Request(rid=2, page="p", demands={})
        bad.failed = True
        app.record(ok)
        app.record(bad)
        assert app.completed == [ok] and app.failed == [bad]

    def test_serve_tandem_records_suffix_spans(self, sim):
        app, demands = build_app(sim)
        request = Request(rid=1, page="p", demands=demands)

        def client(sim):
            yield from app.serve_tandem(request)

        sim.process(client(sim))
        sim.run()
        # Suffix spans: front span covers the whole journey.
        t0 = request.tier_response_time("t0")
        t1 = request.tier_response_time("t1")
        assert t0 == pytest.approx(0.03)
        assert t1 == pytest.approx(0.02)


class TestFetch:
    def test_successful_fetch_records_completion(self, sim):
        app, demands = build_app(sim)
        request = Request(rid=1, page="p", demands=demands)

        def client(sim):
            yield from fetch(sim, app, request)

        sim.process(client(sim))
        sim.run()
        assert request.completed
        assert request.attempts == 1
        assert app.completed == [request]

    def test_drop_then_retransmit(self, sim):
        app, demands = build_app(sim, concurrencies=(1, 1), backlog=0)
        blocker = Request(rid=0, page="p", demands={"t0": 0.0, "t1": 0.5})
        victim = Request(rid=1, page="p", demands={"t0": 0.0, "t1": 0.01})

        def first(sim):
            yield from fetch(sim, app, blocker)

        def second(sim):
            yield 0.1
            yield from fetch(sim, app, victim)

        sim.process(first(sim))
        sim.process(second(sim))
        sim.run()
        assert victim.attempts == 2
        assert victim.response_time > 1.0  # paid one RTO
        assert app.front.drops == 1

    def test_gives_up_after_max_retries(self, sim):
        app, demands = build_app(sim, concurrencies=(1, 1), backlog=0)
        blocker = Request(rid=0, page="p", demands={"t0": 0.0, "t1": 1e6})
        victim = Request(rid=1, page="p", demands={"t0": 0.0, "t1": 0.01})
        tcp = RetransmissionPolicy(max_retries=2)

        def first(sim):
            yield from fetch(sim, app, blocker)

        def second(sim):
            yield 0.1
            yield from fetch(sim, app, victim, tcp=tcp)

        sim.process(first(sim))
        sim.process(second(sim))
        sim.run(until=100.0)
        assert victim.failed
        assert victim.attempts == 3  # original + 2 retries
        assert app.failed == [victim]


class TestClosedLoopClient:
    def test_user_alternates_think_and_request(self, sim):
        app, demands = build_app(sim)
        rng = np.random.default_rng(1)
        factory = lambda rid: Request(rid=rid, page="p", demands=dict(demands))
        client = ClosedLoopClient(
            sim, app, factory, think_time=0.5, rng=rng
        )
        sim.process(client.run())
        sim.run(until=20.0)
        assert client.requests_sent > 10
        assert len(app.completed) >= client.requests_sent - 1

    def test_thinking_user_holds_no_finished_request(self, sim):
        """A finished request dies when its log batch packs, mid-think."""

        class Tracked(Request):
            __slots__ = ("__weakref__",)

        app, demands = build_app(sim)
        finished = []

        def factory(rid):
            request = Tracked(rid=rid, page="p", demands=dict(demands))
            finished.append(weakref.ref(request))
            return request

        client = ClosedLoopClient(
            sim, app, factory, think_time=1000.0,
            rng=np.random.default_rng(1),
        )
        sim.process(client.run())
        sim.run(until=1.0)
        # One request done, the user thinking: the log's pending batch
        # is the only holder left.
        assert client.requests_sent == 1 and len(app.completed) == 1
        assert finished[0]() is not None
        app.completed.column("t_done")  # a reader packs the batch
        assert finished[0]() is None
        sim.run(until=2.0)
        assert client.requests_sent == 1

    def test_population_staggers_starts(self, sim):
        app, demands = build_app(sim, concurrencies=(50, 40))
        rng = np.random.default_rng(2)
        factory = lambda rid: Request(rid=rid, page="p", demands=dict(demands))
        pop = UserPopulation(
            sim, app, factory, users=20, think_time=1.0, rng=rng
        )
        pop.start()
        pop.start()  # idempotent
        sim.run(until=10.0)
        assert pop.total_requests_sent > 50
        first_arrivals = sorted(
            r.t_first_attempt for r in app.completed
        )[:20]
        assert first_arrivals[0] != first_arrivals[1]

    def test_invalid_users(self, sim):
        app, demands = build_app(sim)
        with pytest.raises(ValueError):
            UserPopulation(sim, app, lambda rid: None, users=0)


class TestOpenLoopProber:
    def test_probes_collect_samples(self, sim):
        app, demands = build_app(sim, concurrencies=(10, 8))
        rng = np.random.default_rng(3)
        factory = lambda rid: Request(
            rid=rid, page="probe", demands=dict(demands)
        )
        prober = OpenLoopProber(sim, app, factory, rate=5.0, rng=rng)
        prober.start()
        prober.start()  # idempotent
        sim.run(until=10.0)
        assert len(prober.samples) > 20
        rts = prober.samples_since(0.0)
        assert all(rt > 0 for rt in rts)

    def test_samples_since_filters(self, sim):
        app, demands = build_app(sim, concurrencies=(10, 8))
        rng = np.random.default_rng(4)
        factory = lambda rid: Request(
            rid=rid, page="probe", demands=dict(demands)
        )
        prober = OpenLoopProber(sim, app, factory, rate=5.0, rng=rng)
        prober.start()
        sim.run(until=10.0)
        recent = prober.samples_since(9.0)
        assert len(recent) < len(prober.samples)

    def test_invalid_rate(self, sim):
        app, _ = build_app(sim)
        with pytest.raises(ValueError):
            OpenLoopProber(sim, app, lambda rid: None, rate=0.0)


def two_tier_app(sim, front_concurrency, back_backlog=None):
    """Front drops when busy (backlog 0); ``back_backlog`` bounds t1."""
    app, _ = build_app(sim, concurrencies=(front_concurrency, 1))
    back = app.tiers[1]
    back.pool.max_queue = back_backlog
    return app


def drive_pair(sim, app, second_at=0.05, tcp=None):
    """A slow first request, then a second one at ``second_at``."""
    kwargs = {} if tcp is None else {"tcp": tcp}
    requests = [
        Request(rid=rid, page="p", demands={"t0": 0.01, "t1": 0.2})
        for rid in range(2)
    ]

    def client(sim, request, delay):
        if delay:
            yield delay
        yield from fetch(sim, app, request, **kwargs)

    sim.process(client(sim, requests[0], 0.0))
    sim.process(client(sim, requests[1], second_at))
    return requests


def span_rows(request):
    """(depth, kind, name, start, end, attrs) of every traced span."""
    return [
        (depth, span.kind, span.name, span.start, span.end, span.attrs)
        for span, depth in request.trace.walk()
    ]


class TestDropPaths:
    """Every kind of drop reaches fetch's retransmission path."""

    def test_front_drop_is_returned_not_raised(self, sim):
        app = two_tier_app(sim, front_concurrency=1)
        _, second = drive_pair(sim, app)
        sim.run()
        assert second.attempts == 2
        assert second.drop_tiers == ["t0"]
        assert second.attempt_times == [
            pytest.approx(0.05), pytest.approx(1.05)
        ]
        front = app.front
        assert (front.arrivals, front.drops, front.completions) == (3, 1, 2)

    def test_inner_bounded_backlog_drop(self, sim):
        app = two_tier_app(sim, front_concurrency=2, back_backlog=0)
        _, second = drive_pair(sim, app)
        sim.run()
        assert second.attempts == 2
        assert second.drop_tiers == ["t1"]
        assert app.tiers[1].drops == 1
        assert app.front.drops == 0
        # The front thread was released when the drop unwound it.
        assert app.front.pool.in_use == 0

    def test_network_overflow_drop(self, sim):
        from repro.net import FiniteQueue, QueueChain

        app = two_tier_app(sim, front_concurrency=2)
        ring = FiniteQueue(sim, "ring", rate=1000.0, buffer=4)
        ring.set_background(0.5, 1.0)  # every descriptor held
        app.front.link_down = QueueChain(
            sim, "t0->t1", [ring],
            tcp=RetransmissionPolicy(min_rto=0.01, max_retries=0),
        )

        def attacker_stops(sim):
            yield 0.5
            ring.set_background(0.0, 0.0)

        sim.process(attacker_stops(sim))
        request = Request(rid=1, page="p", demands={"t0": 0.01, "t1": 0.2})

        def client(sim):
            yield from fetch(sim, app, request)

        sim.process(client(sim))
        sim.run()
        assert request.completed
        assert request.attempts == 2
        assert request.drop_tiers == ["net:t0->t1"]

    def test_remote_overflow_drop(self, sim):
        from repro.ntier.remote import RemoteTierServer, RemoteTierStub

        class Loopback:
            def bind(self, handler):
                self.handler = handler

            def send(self, now, payload):
                sim.defer_at(now + 0.001, lambda: self.handler(payload))

        app = two_tier_app(sim, front_concurrency=2)
        front, back = app.tiers
        back.pool.max_queue = 0
        call, reply = Loopback(), Loopback()
        stub = RemoteTierStub(sim, "t1", call)
        server = RemoteTierServer(sim, back, reply)
        call.bind(server.dispatch)
        reply.bind(stub.deliver)
        front.downstream = stub
        _, second = drive_pair(
            sim, app, tcp=RetransmissionPolicy(max_retries=0)
        )
        sim.run()
        assert second.failed
        assert second.attempts == 1
        assert second.drop_tiers == ["t1"]
        assert (stub.arrivals, stub.completions, stub.drops) == (2, 1, 1)
        assert (back.arrivals, back.drops) == (2, 1)

    def test_traced_front_drop_span_tree(self, sim):
        """Same tree as the raise-and-catch path produced."""
        from repro.obs import Tracer

        app = two_tier_app(sim, front_concurrency=1)
        app.tracer = Tracer()
        _, second = drive_pair(sim, app)
        sim.run()
        rows = span_rows(second)
        assert [row[:3] for row in rows[:4]] == [
            (0, "request", "p"),
            (1, "attempt", "attempt-1"),
            (2, "tier", "t0"),
            (1, "rto_wait", "rto-1"),
        ]
        assert rows[0][5] == {"status": "ok", "attempts": 2}
        assert rows[1][3:] == (
            pytest.approx(0.05),
            pytest.approx(0.05),
            {"dropped": True, "drop_tier": "t0"},
        )
        assert rows[2][3:] == (
            pytest.approx(0.05),
            pytest.approx(0.05),
            {"error": "TierOverflowError"},
        )
        assert rows[3][3:] == (
            pytest.approx(0.05), pytest.approx(1.05), {"rto": 1.0}
        )
        assert [row[:3] for row in rows[4:7]] == [
            (1, "attempt", "attempt-2"),
            (2, "tier", "t0"),
            (3, "queue_wait", "t0"),
        ]
        assert len(rows) == 12

    def test_traced_inner_drop_span_tree(self, sim):
        from repro.obs import Tracer

        app = two_tier_app(sim, front_concurrency=2, back_backlog=0)
        app.tracer = Tracer()
        _, second = drive_pair(sim, app)
        sim.run()
        rows = span_rows(second)
        assert [row[:3] for row in rows[:6]] == [
            (0, "request", "p"),
            (1, "attempt", "attempt-1"),
            (2, "tier", "t0"),
            (3, "queue_wait", "t0"),
            (3, "service", "t0"),
            (3, "tier", "t1"),
        ]
        assert rows[1][5] == {"dropped": True, "drop_tier": "t1"}
        assert rows[2][5] == {"error": "TierOverflowError"}
        assert rows[5][3:] == (
            pytest.approx(0.0585),
            pytest.approx(0.0585),
            {"error": "TierOverflowError"},
        )
        assert rows[6][:3] == (1, "rto_wait", "rto-1")
        assert len(rows) == 15
