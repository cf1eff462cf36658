"""Unit tests for the sharded-kernel building blocks (DESIGN.md §12).

The end-to-end byte-identity gate lives in ``test_determinism.py``
(``TestShardedDeterminism``); this module pins the pieces it composes:
the rack/ToR topology matrix and its lookahead arithmetic, placement
policies, the cross-host link's synchronous delivery clock, the
``Simulator.inject`` boundary contract, the ``ShardRunner`` window
loop with in-memory transports, the remote tier stub/server RPC pair,
the datacenter scenario's layout validation, and the shard workers'
host-side execution (CPU pinning, collector state).
"""

import gc
import multiprocessing as mp
import os
import signal
import time
from dataclasses import replace
from functools import partial
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (
    LinkSpec,
    RackTopology,
    binpack_placement,
    rack_aware_placement,
)
from repro.experiments import datacenter
from repro.experiments.datacenter import (
    DATACENTERS,
    DC_2HOST,
    DC_4HOST,
    DC_8HOST,
    DatacenterScenario,
    ShardSpec,
    _worker_cpus,
    run_datacenter,
    shard_groups,
)
from repro.net import CrossHostLink
from repro.ntier import TierOverflowError
from repro.ntier.remote import (
    RemoteTierServer,
    RemoteTierStub,
    marshal_request,
    unmarshal_request,
)
from repro.ntier.request import Request
from repro.sim import SimulationError, Simulator
from repro.sim.core import Timeout
from repro.sim.sharded import FLAG_FINAL, FrameChannel, FrameCodec, ShardRunner

TOPO = RackTopology(racks=(("r1", ("a", "b")), ("r2", ("c", "d"))))


class TestRackTopology:
    def test_same_rack_pairs_use_the_tor_link(self):
        spec = TOPO.link("a", "b")
        assert spec == LinkSpec(TOPO.tor_latency, TOPO.tor_rate)

    def test_cross_rack_pairs_pay_oversubscribed_spine(self):
        spec = TOPO.link("a", "c")
        assert spec.latency == TOPO.spine_latency
        assert spec.rate == TOPO.spine_rate / TOPO.oversubscription

    def test_lookahead_is_idle_nic_plus_port_plus_propagation(self):
        for src, dst in (("a", "b"), ("b", "c")):
            spec = TOPO.link(src, dst)
            assert TOPO.lookahead(src, dst) == pytest.approx(
                1.0 / TOPO.nic_rate + 1.0 / spec.rate + spec.latency
            )

    def test_min_lookahead_takes_the_tightest_pair(self):
        pairs = [("a", "b"), ("a", "c"), ("d", "a")]
        assert TOPO.min_lookahead(pairs) == min(
            TOPO.lookahead(s, d) for s, d in pairs
        )
        # ToR hops bound the window, not the slower spine hops.
        assert TOPO.min_lookahead(pairs) == TOPO.lookahead("a", "b")

    def test_min_lookahead_rejects_empty_pair_set(self):
        with pytest.raises(ValueError):
            TOPO.min_lookahead([])

    def test_unknown_host_and_self_link_rejected(self):
        with pytest.raises(KeyError):
            TOPO.rack_of("nowhere")
        with pytest.raises(ValueError):
            TOPO.link("a", "a")

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            RackTopology(racks=())
        with pytest.raises(ValueError):
            RackTopology(racks=(("r1", ()),))
        with pytest.raises(ValueError):
            RackTopology(racks=(("r1", ("a",)), ("r2", ("a",))))
        with pytest.raises(ValueError):
            RackTopology(racks=(("r1", ("a",)),), nic_rate=0.0)

    def test_hosts_enumerates_in_rack_order(self):
        assert TOPO.hosts == ("a", "b", "c", "d")


class TestPlacement:
    def test_rack_aware_alternates_racks(self):
        placement = rack_aware_placement(("w", "x", "y", "z"), TOPO)
        assert placement == {"w": "a", "x": "c", "y": "b", "z": "d"}
        racks = [TOPO.rack_of(h) for h in placement.values()]
        assert racks == ["r1", "r2", "r1", "r2"]

    def test_binpack_fills_first_rack_first(self):
        placement = binpack_placement(("w", "x", "y"), TOPO)
        assert placement == {"w": "a", "x": "b", "y": "c"}

    def test_both_policies_reject_overflow(self):
        tiers = tuple(f"t{i}" for i in range(5))
        with pytest.raises(ValueError):
            rack_aware_placement(tiers, TOPO)
        with pytest.raises(ValueError):
            binpack_placement(tiers, TOPO)


class TestCrossHostLink:
    def make_link(self, sim, src="a", dst="c"):
        spec = TOPO.link(src, dst)
        return CrossHostLink(
            sim,
            f"{src}->{dst}",
            nic_rate=TOPO.nic_rate,
            link_latency=spec.latency,
            link_rate=spec.rate,
        )

    def test_lookahead_matches_topology_matrix(self):
        sim = Simulator()
        for src, dst in (("a", "b"), ("a", "c")):
            link = self.make_link(sim, src, dst)
            assert link.lookahead == pytest.approx(
                TOPO.lookahead(src, dst)
            )
            assert link.lookahead == link.min_latency

    def test_delivery_never_beats_lookahead(self):
        # delivery_time walks the stages (t += ...) while lookahead sums
        # them up front, so the comparison is exact only to the ULP.
        sim = Simulator()
        link = self.make_link(sim)
        for t in (0.0, 0.001, 0.5, 0.5, 2.0):
            assert link.delivery_time(t) >= t + link.lookahead - 1e-12

    def test_burst_serializes_on_monotone_horizons(self):
        # Simultaneous sends share the stage horizons: delivery times
        # strictly increase even though nothing buffers or drops.
        sim = Simulator()
        link = self.make_link(sim)
        deliveries = [link.delivery_time(0.0) for _ in range(20)]
        assert deliveries == sorted(deliveries)
        assert len(set(deliveries)) == len(deliveries)
        assert link.messages == 20

    def test_positive_latency_required(self):
        with pytest.raises(ValueError):
            CrossHostLink(
                Simulator(),
                "bad",
                nic_rate=1e5,
                link_latency=0.0,
                link_rate=1e5,
            )


class TestInject:
    def test_past_timestamp_aborts_loudly(self):
        # The lookahead-violation detector: a cross-shard delivery
        # stamped before the window boundary must raise, not reorder.
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.inject(0.5, lambda: None)

    def test_injected_events_share_the_timed_queue(self):
        sim = Simulator()
        order = []
        sim.defer_at(1.0, lambda: order.append("local"))
        sim.inject(0.5, lambda: order.append("early"))
        sim.inject(1.0, lambda: order.append("tied-later"))
        sim.run()
        # Same queue, same sequence counter: FIFO among equal stamps.
        assert order == ["early", "local", "tied-later"]


class ConstantLink:
    """A test link: fixed delivery delay, no shared horizon state."""

    def __init__(self, lookahead):
        self.lookahead = lookahead

    def delivery_time(self, now):
        return now + self.lookahead


class ListTransport:
    """In-memory one-directional transport: preloaded recv frames."""

    def __init__(self, frames=()):
        self.sent = []
        self._frames = list(frames)

    def send(self, frame):
        self.sent.append(frame)

    def recv(self):
        return self._frames.pop(0)


def packed(*headers):
    """Encode ``(promise, clock, flags, skip, messages)`` frames in
    order through one link's codec — what a peer shard would send."""
    codec = FrameCodec()
    return [codec.encode(*header) for header in headers]


class TestShardRunner:
    WINDOW = 0.1

    def lockstep_peer(self, windows, last=()):
        """A peer promising one more base window per round for
        ``windows`` rounds, then closing the link (its final frame
        carrying ``last``)."""
        w = self.WINDOW
        headers = [((k + 1) * w, k * w, 0, 0, []) for k in range(windows)]
        headers.append((inf, windows * w, FLAG_FINAL, 0, list(last)))
        return packed(*headers)

    def run_sender(self, sends, duration=0.4):
        """Drive a sender shard against a lock-step peer; return the
        runner, the buffers it shipped, and their decoded frames."""
        sim = Simulator()
        channel = FrameChannel(ConstantLink(self.WINDOW))
        transport = ListTransport()
        for t, payload in sends:
            sim.defer_at(t, partial(channel.send, t, payload))
        peer = ListTransport(self.lockstep_peer(3))
        runner = ShardRunner(
            sim,
            duration=duration,
            window=self.WINDOW,
            outgoing=[(transport, channel)],
            incoming=[(peer, FrameChannel(None))],
            reverse=[0],
        )
        runner.run()
        decoder = FrameCodec()
        frames = [decoder.decode(buf) for buf in transport.sent]
        return runner, transport.sent, frames

    def test_sends_land_in_their_windows_frames(self):
        sends = [(0.05, "a"), (0.11, "b"), (0.19, "c"), (0.23, "d")]
        runner, _, frames = self.run_sender(sends)
        # Four grid windows plus the closing round at the duration.
        assert runner.windows == 5
        assert runner.sent == 4
        assert len(frames) == 5  # one frame per round, empties included
        for k, (promise, clock, flags, _, messages) in enumerate(frames):
            # A send at s <= clock stamps delivery s + L, strictly past
            # the horizon the shard advanced to before shipping it...
            for time, _ in messages:
                assert time > clock
            # ...and past every promise an earlier frame made.
            for earlier in frames[:k]:
                for time, _ in messages:
                    assert time > earlier[0]
            assert bool(flags & FLAG_FINAL) == (k == len(frames) - 1)
        assert frames[-1][0] == inf
        assert [p for f in frames for _, p in f[4]] == ["a", "b", "c", "d"]

    def test_receiver_dispatches_at_stamped_times(self):
        sends = [(0.05, "a"), (0.11, "b"), (0.19, "c"), (0.23, "d")]
        _, wire, _ = self.run_sender(sends)
        sim = Simulator()
        channel = FrameChannel(None)
        seen = []
        channel.bind(lambda payload: seen.append((sim.now, payload)))
        reply = FrameChannel(ConstantLink(self.WINDOW))
        runner = ShardRunner(
            sim,
            duration=0.4,
            window=self.WINDOW,
            outgoing=[(ListTransport(), reply)],
            incoming=[(ListTransport(wire), channel)],
            reverse=[0],
        )
        runner.run()
        assert runner.received == 4
        assert runner.frames_received == len(wire)
        assert seen == [
            (pytest.approx(t + self.WINDOW), p) for t, p in sends
        ]

    def test_simultaneous_deliveries_order_by_link_rank_then_index(self):
        sim = Simulator()
        x, y = FrameChannel(None), FrameChannel(None)
        order = []
        x.bind(lambda p: order.append(p))
        y.bind(lambda p: order.append(p))
        frames_x = packed(
            (inf, 0.0, FLAG_FINAL, 0, [(0.15, "x0"), (0.15, "x1")])
        )
        frames_y = packed(
            (inf, 0.0, FLAG_FINAL, 0, [(0.15, "y0"), (0.17, "y-later")])
        )
        runner = ShardRunner(
            sim,
            duration=0.2,
            window=self.WINDOW,
            outgoing=[],
            incoming=[
                (ListTransport(frames_x), x),
                (ListTransport(frames_y), y),
            ],
            reverse=[],
        )
        runner.run()
        # Equal stamps break ties by (link rank, intra-frame index).
        assert order == ["x0", "x1", "y0", "y-later"]

    def test_lookahead_violation_aborts_the_run(self):
        sim = Simulator()
        channel = FrameChannel(None)
        channel.bind(lambda p: None)
        # Stamped *inside* the first window: by the time the closing
        # frame is injected the shard already advanced past it.
        frames = self.lockstep_peer(1, last=[(0.05, "late")])
        runner = ShardRunner(
            sim,
            duration=0.2,
            window=self.WINDOW,
            outgoing=[],
            incoming=[(ListTransport(frames), channel)],
            reverse=[],
        )
        with pytest.raises(SimulationError):
            runner.run()

    def test_on_window_honors_stride_and_final_flush(self):
        calls = []
        sim = Simulator()
        peer = ListTransport(self.lockstep_peer(3))
        runner = ShardRunner(
            sim,
            duration=0.35,  # 3 grid windows, then a short last one
            window=self.WINDOW,
            outgoing=[],
            incoming=[(peer, FrameChannel(None))],
            reverse=[],
            on_window=lambda *a: calls.append(a),
            window_stride=2,
        )
        runner.run()
        assert runner.windows == 5
        indices = [index for index, *_ in calls]
        # Every stride boundary plus the mandatory final report.
        assert indices == [2, 4, 5]
        assert calls[-1][1] == pytest.approx(0.35)

    def test_rejects_degenerate_geometry(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ShardRunner(
                sim, duration=1.0, window=0.0, outgoing=[], incoming=[],
                reverse=[],
            )
        with pytest.raises(ValueError):
            ShardRunner(
                sim, duration=0.0, window=0.1, outgoing=[], incoming=[],
                reverse=[],
            )


class DirectChannel:
    """Loopback channel: deliver to the bound handler after ``delay``."""

    def __init__(self, sim, delay=0.001):
        self.sim = sim
        self.delay = delay
        self._handler = None

    def bind(self, handler):
        self._handler = handler

    def send(self, now, payload):
        self.sim.defer_at(now + self.delay, partial(self._handler, payload))


class FakeTier:
    """Minimal chain tail: fixed service time, optional overflow."""

    def __init__(self, sim, name="mysql", fail=False):
        self.sim = sim
        self.name = name
        self.fail = fail

    def handle(self, request):
        start = self.sim.now
        yield Timeout(self.sim, 0.02)
        if self.fail:
            raise TierOverflowError(self.name)
        request.tier_spans.setdefault(self.name, []).append(
            (start, self.sim.now)
        )


def make_request(rid=7):
    return Request(
        rid=rid,
        page="StoriesOfTheDay",
        demands={"mysql": 0.02},
        t_first_attempt=0.0,
        weight=1.0,
    )


class TestRemoteTier:
    def wire(self, fail=False):
        sim = Simulator()
        call, reply = DirectChannel(sim), DirectChannel(sim)
        stub = RemoteTierStub(sim, "mysql", call, concurrency=8)
        server = RemoteTierServer(sim, FakeTier(sim, fail=fail), reply)
        call.bind(server.dispatch)
        reply.bind(stub.deliver)
        return sim, stub, server

    def test_marshal_roundtrip_copies_demands(self):
        request = make_request()
        frame = marshal_request(request)
        assert frame == (7, "StoriesOfTheDay", {"mysql": 0.02}, 1.0)
        request.demands["mysql"] = 99.0  # sender-side mutation
        assert frame[2] == {"mysql": 0.02}
        shadow = unmarshal_request(frame, now=3.5)
        assert (shadow.rid, shadow.page) == (7, "StoriesOfTheDay")
        assert shadow.t_first_attempt == 3.5

    def test_call_merges_remote_spans_into_the_original(self):
        sim, stub, server = self.wire()
        request = make_request()
        done = []

        def client():
            yield from stub.handle(request)
            done.append(sim.now)

        sim.process(client())
        sim.run()
        # One channel hop out, remote service, one hop back.
        assert done == [pytest.approx(0.001 + 0.02 + 0.001)]
        assert request.tier_spans["mysql"] == [
            (pytest.approx(0.001), pytest.approx(0.021))
        ]
        assert (stub.arrivals, stub.completions, stub.drops) == (1, 1, 0)
        assert (server.calls, server.replies) == (1, 1)
        assert stub.occupancy == 0

    def test_remote_overflow_reraises_with_remote_tier_name(self):
        sim, stub, server = self.wire(fail=True)
        caught = []

        def client():
            try:
                yield from stub.handle(make_request())
            except TierOverflowError as overflow:
                caught.append(overflow.tier)

        sim.process(client())
        sim.run()
        assert caught == ["mysql"]
        assert (stub.completions, stub.drops) == (0, 1)
        assert server.replies == 1

    def test_concurrent_calls_demultiplex_by_call_id(self):
        sim, stub, _ = self.wire()
        finished = []

        def client(rid):
            yield from stub.handle(make_request(rid))
            finished.append(rid)

        for rid in (1, 2, 3):
            sim.process(client(rid))
        sim.run()
        assert sorted(finished) == [1, 2, 3]
        assert stub.completions == 3
        assert stub.occupancy == 0


class TestDatacenterScenarioValidation:
    def test_registered_scenarios_are_well_formed(self):
        assert DC_2HOST.chain() == ("apache", "tomcat", "mysql")
        edges, replicas = DC_2HOST.layout()
        assert [e.tier for e in edges] == ["mysql"]
        assert replicas == ()
        edges4, replicas4 = DC_4HOST.layout()
        assert [e.tier for e in edges4] == ["tomcat", "mysql", "mysql"]
        assert replicas4 == (2, 3)
        assert DC_2HOST.window == pytest.approx(
            DC_2HOST.topology.min_lookahead(DC_2HOST.channel_pairs())
        )

    def test_needs_at_least_two_shards(self):
        with pytest.raises(ValueError, match=">= 2 shards"):
            replace(DC_2HOST, shards=DC_2HOST.shards[:1])

    def test_duplicate_and_unknown_hosts_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            replace(
                DC_2HOST,
                shards=(
                    ShardSpec(host="h1", tiers=("apache", "tomcat")),
                    ShardSpec(host="h1", tiers=("mysql",)),
                ),
            )
        with pytest.raises(KeyError):
            replace(
                DC_2HOST,
                shards=(
                    ShardSpec(host="h1", tiers=("apache", "tomcat")),
                    ShardSpec(host="nowhere", tiers=("mysql",)),
                ),
            )

    def test_shards_must_tile_the_chain_in_order(self):
        with pytest.raises(ValueError, match="do not continue"):
            replace(
                DC_2HOST,
                shards=(
                    ShardSpec(host="h1", tiers=("mysql",)),
                    ShardSpec(host="h2", tiers=("apache", "tomcat")),
                ),
            )
        with pytest.raises(ValueError, match="shards cover"):
            replace(
                DC_2HOST,
                shards=(
                    ShardSpec(host="h1", tiers=("apache",)),
                    ShardSpec(host="h2", tiers=("tomcat",)),
                ),
            )

    def test_network_and_hybrid_bases_rejected(self):
        from repro.experiments.configs import NetworkConfig

        with pytest.raises(ValueError, match="base.network"):
            replace(
                DC_2HOST, base=replace(DC_2HOST.base, network=NetworkConfig())
            )

    def test_run_rejects_out_of_range_shard_counts(self):
        # Any 1 <= K <= n has a contiguous grouping; only counts
        # outside that range are rejected.
        with pytest.raises(ValueError, match="1 <= shards"):
            run_datacenter(DC_2HOST, shards=3)
        with pytest.raises(ValueError, match="1 <= shards"):
            run_datacenter(DC_4HOST, shards=0)

    def test_bulk_validation(self):
        from repro.experiments.datacenter import ShardBulk

        with pytest.raises(ValueError, match="users_per_host"):
            ShardBulk(users_per_host=0, think_time=1.0)
        with pytest.raises(ValueError, match="think_time"):
            ShardBulk(users_per_host=10, think_time=0.0)

    def test_hybrid_base_rejected_in_favor_of_bulk(self):
        from repro.sim.hybrid import HybridConfig

        with pytest.raises(ValueError, match="ShardBulk"):
            replace(
                DC_2HOST,
                base=replace(
                    DC_2HOST.base,
                    hybrid=HybridConfig(sample_fraction=0.5),
                ),
            )


class TestShardWorkerHost:
    """Host-side execution of shard workers: CPU pinning and the
    coordinator's collector state."""

    def test_workers_get_distinct_cpus_when_they_fit(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 2, 9})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
        assert _worker_cpus(2) == [2, 5]
        assert _worker_cpus(3) == [2, 5, 9]

    def test_more_workers_than_cpus_pins_nobody(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
        assert _worker_cpus(3) == [None, None, None]

    def test_missing_setaffinity_is_a_no_op(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert _worker_cpus(2) == [None, None]

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if enabled else gc.disable)()

    SHORT = replace(DC_2HOST, base=replace(DC_2HOST.base, duration=1.5))

    def test_gc_state_restored_after_sharded_run(self, gc_state):
        run = run_datacenter(self.SHORT, shards=2)
        assert run.shards_used == 2
        assert gc.isenabled() is gc_state

    def test_gc_state_restored_after_worker_failure(
        self, gc_state, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise ValueError("domain build failed")

        # Fork workers inherit the patched module.
        monkeypatch.setattr(datacenter, "_build_group", broken)
        with pytest.raises(RuntimeError, match="domain build failed"):
            run_datacenter(self.SHORT, shards=2)
        assert gc.isenabled() is gc_state

    def test_worker_dying_without_report_fails_fast(
        self, gc_state, monkeypatch
    ):
        build = datacenter._build_group

        def dies_off_front(scenario, members, sim):
            if 0 not in members:
                os._exit(3)  # no traceback, no "error" message
            return build(scenario, members, sim)

        def hung(signum, frame):
            raise AssertionError("run_datacenter hung on a dead worker")

        # Fork workers inherit the patched module.  The front worker
        # survives, blocked on the dead one's frames.
        monkeypatch.setattr(datacenter, "_build_group", dies_off_front)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="died without reporting"):
                run_datacenter(self.SHORT, shards=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 5.0
        assert mp.active_children() == []
        assert gc.isenabled() is gc_state


class TestShardGroups:
    """Event-weighted contiguous grouping of shards into workers."""

    @pytest.mark.parametrize("name", sorted(DATACENTERS))
    def test_groups_tile_the_shards_contiguously(self, name):
        scenario = DATACENTERS[name]
        n = len(scenario.shards)
        for k in range(1, n + 1):
            groups = shard_groups(scenario, k)
            assert len(groups) == k
            assert all(groups)
            assert [i for members in groups for i in members] == list(
                range(n)
            )
            for members in groups:
                assert members == list(range(members[0], members[-1] + 1))
            assert groups[0][0] == 0
            assert shard_groups(scenario, k) == groups

    def test_heaviest_group_is_minimal(self):
        # Against brute force over every contiguous cut placement.
        from itertools import combinations

        weights = DC_4HOST.shard_weights()
        for k in range(1, 5):
            groups = shard_groups(DC_4HOST, k)
            heaviest = max(sum(weights[i] for i in g) for g in groups)
            best = min(
                max(
                    sum(weights[a:b])
                    for a, b in zip((0,) + cuts, cuts + (4,))
                )
                for cuts in combinations(range(1, 4), k - 1)
            )
            assert heaviest == pytest.approx(best)

    def test_two_workers_isolate_the_front(self):
        assert shard_groups(DC_4HOST, 2) == [[0], [1, 2, 3]]
        assert shard_groups(DC_8HOST, 2) == [[0], list(range(1, 8))]
        # One worker per host, and the reference's one group.
        assert shard_groups(DC_4HOST, 4) == [[0], [1], [2], [3]]
        assert shard_groups(DC_4HOST, 1) == [[0, 1, 2, 3]]

    def test_out_of_range_counts_rejected(self):
        with pytest.raises(ValueError, match="1 <= shards"):
            shard_groups(DC_4HOST, 5)
        with pytest.raises(ValueError, match="1 <= shards"):
            shard_groups(DC_4HOST, 0)

    def test_weights_follow_the_page_mix(self):
        # apache 1.0 reach x (1 + 0.92 calling down), tomcat 0.92 x 2,
        # mysql 0.92 split over two replicas.
        weights = DC_4HOST.shard_weights()
        total = sum(weights)
        shares = [round(w / total, 2) for w in weights]
        assert shares == [0.41, 0.39, 0.10, 0.10]
        assert weights[2] == weights[3]
        # dc-2host's first shard carries apache and tomcat.
        two = DC_2HOST.shard_weights()
        assert two[0] == pytest.approx(weights[0] + weights[1])
        assert two[1] == pytest.approx(weights[2] + weights[3])

    @pytest.mark.parametrize(
        "scenario", [DC_4HOST, DC_8HOST], ids=lambda s: s.name
    )
    def test_weight_shares_match_measured_events(self, scenario):
        short = replace(scenario, base=replace(scenario.base, duration=2.0))
        run = run_datacenter(short, shards=len(short.shards))
        events = [result.events for result in run.shard_results]
        weights = short.shard_weights()
        for event_count, weight in zip(events, weights):
            assert event_count / sum(events) == pytest.approx(
                weight / sum(weights), abs=0.05
            )

    def test_run_reports_its_groups_and_cross_group_window(self):
        short = replace(DC_4HOST, base=replace(DC_4HOST.base, duration=0.5))
        run = run_datacenter(short, shards=2)
        assert run.groups == [[0], [1, 2, 3]]
        # Only the apache<->tomcat spine link crosses groups: the base
        # window is the spine lookahead, not the scenario's ToR minimum.
        spine = short.topology.lookahead("h1", "h3")
        assert run.window == pytest.approx(spine)
        assert run.window > short.window
        single = run_datacenter(short, shards=1)
        assert single.groups == [[0, 1, 2, 3]]
        assert single.window == short.window

    def test_progress_stride_follows_the_run_window(self):
        short = replace(DC_4HOST, base=replace(DC_4HOST.base, duration=2.5))
        reports = []
        run_datacenter(short, shards=2, progress=reports.append)
        front = [r.now for r in reports if r.shard == 0]
        # Roughly once per simulated second, then the final flush.
        assert front[:2] == pytest.approx([1.0, 2.0], abs=0.05)
        assert front[-1] == pytest.approx(2.5)


class TestFrameCodec:
    """The packed wire round-trips payloads *equal* to the originals."""

    HEADER = (1.25, 1.0, 0, 2)

    def roundtrip(self, frame, encoder=None, decoder=None):
        from repro.sim.sharded import FrameCodec

        encoder = encoder or FrameCodec()
        decoder = decoder or FrameCodec()
        buf = encoder.encode(*self.HEADER, frame)
        assert isinstance(buf, bytes)
        promise, clock, flags, skip, out = decoder.decode(buf)
        assert (promise, clock, flags, skip) == self.HEADER
        return out, encoder, decoder

    def test_call_row_roundtrips_exactly(self):
        frame = [
            (
                0.503,
                (9, 1207, "StoriesOfTheDay", {"mysql": 0.0215}, 1.0),
            ),
            (0.504, (10, 1208, "StoriesOfTheDay", {}, 1.0)),
            # An empty key is still one key.
            (0.505, (11, 1209, "StoriesOfTheDay", {"": 0.5}, 1.0)),
            # A key holding the shape separator must not split.
            (0.506, (12, 1210, "StoriesOfTheDay", {"a\x1fb": 0.5}, 1.0)),
        ]
        out, _, _ = self.roundtrip(frame)
        assert out == frame

    def test_reply_and_error_rows_roundtrip_exactly(self):
        spans = [("mysql", [(0.5, 0.52), (0.6, 0.61)]), ("cache", [])]
        frame = [
            (0.7, (9, True, spans)),
            (0.71, (10, False, "mysql")),
        ]
        out, _, _ = self.roundtrip(frame)
        assert out == frame

    def test_unrecognized_payloads_fall_back_to_pickle(self):
        frame = [
            (0.1, "plain-string"),
            (0.2, {"not": "an rpc"}),
            (0.3, (1, 2)),  # tuple of the wrong arity
            (0.4, (9, 1, "page", {"mysql": 1}, 1.0)),  # int demand
            (0.5, (9, 1, "page", {1: 0.5}, 1.0)),  # non-str demand key
        ]
        out, _, _ = self.roundtrip(frame)
        assert out == frame

    def test_empty_frame_is_header_only(self):
        out, encoder, _ = self.roundtrip([])
        assert out == []
        assert encoder.frames == 1
        assert encoder.messages == 0

    def test_interning_is_stateful_across_frames(self):
        from repro.sim.sharded import FrameCodec

        encoder, decoder = FrameCodec(), FrameCodec()
        call = (1, 1, "StoriesOfTheDay", {"mysql": 0.02}, 1.0)
        first = encoder.encode(*self.HEADER, [(0.5, call)])
        second = encoder.encode(*self.HEADER, [(0.6, call)])
        # The second frame reuses the table: no string section bytes.
        assert len(second) < len(first)
        assert decoder.decode(first)[4] == [(0.5, call)]
        assert decoder.decode(second)[4] == [(0.6, call)]

    def test_header_flags_and_final_promise_survive(self):
        from math import inf

        from repro.sim.sharded import FLAG_FINAL, FrameCodec

        buf = FrameCodec().encode(inf, 3.0, FLAG_FINAL, 0, [])
        promise, clock, flags, skip, out = FrameCodec().decode(buf)
        assert promise == inf
        assert clock == 3.0
        assert flags & FLAG_FINAL
        assert out == []

    def test_float_demand_values_are_bit_exact(self):
        value = 0.1 + 0.2  # a float with a noisy mantissa
        frame = [(0.25, (3, 4, "p", {"a": value, "b": 1e-300}, 0.125))]
        out, _, _ = self.roundtrip(frame)
        assert out[0][1][3]["a"].hex() == value.hex()
        assert out[0][1][3]["b"].hex() == (1e-300).hex()


class QueueTransport:
    """Thread-safe one-directional transport over ``queue.Queue``."""

    def __init__(self, out_q, in_q):
        self.out_q = out_q
        self.in_q = in_q

    def send(self, obj):
        self.out_q.put(obj)

    def recv(self):
        import queue as queue_mod

        try:
            return self.in_q.get(timeout=30.0)
        except queue_mod.Empty:  # pragma: no cover - deadlock guard
            raise AssertionError("shard exchange deadlocked")


def run_shard_pair(
    sends_a,
    sends_b,
    lookahead_ab,
    lookahead_ba,
    duration,
    window,
):
    """Two ShardRunner threads exchanging over queue transports.

    Each side pre-schedules timer-driven sends on its own simulator;
    returns the two delivery logs as ``[(delivery_time, payload), ...]``
    in handler-invocation order — exactly the injection order the
    protocol produced.
    """
    import queue
    import threading

    q_ab, q_ba = queue.Queue(), queue.Queue()
    logs = ([], [])
    rounds = [0, 0]
    frames = [0, 0]
    errors = []

    def shard(side):
        try:
            sim = Simulator()
            sends = (sends_a, sends_b)[side]
            out_ch = FrameChannel(
                ConstantLink((lookahead_ab, lookahead_ba)[side])
            )
            in_ch = FrameChannel(None)
            log = logs[side]
            in_ch.bind(lambda p: log.append((sim.now, p)))
            for t, payload in sends:
                sim.defer_at(t, partial(out_ch.send, t, payload))
            out_q, in_q = (q_ab, q_ba) if side == 0 else (q_ba, q_ab)
            runner = ShardRunner(
                sim,
                duration=duration,
                window=window,
                outgoing=[(QueueTransport(out_q, in_q), out_ch)],
                incoming=[(QueueTransport(out_q, in_q), in_ch)],
                reverse=[0],
            )
            runner.run()
            rounds[side] = runner.windows
            frames[side] = runner.frames_sent
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append((side, exc))

    threads = [
        threading.Thread(target=shard, args=(side,)) for side in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not errors, errors
    return logs, rounds, frames


def expected_deliveries(sends, lookahead, duration=1.0):
    """Reference injection order: delivery stamp, ties in send order.

    Deliveries stamped past ``duration`` are injected but never
    dispatched (the receiving simulator stops at the horizon), so they
    do not appear in the log.
    """
    stamped = [
        (t + lookahead, i, p) for i, (t, p) in enumerate(sorted(sends))
    ]
    stamped.sort(key=lambda e: (e[0], e[1]))
    return [(time, p) for time, _, p in stamped if time <= duration]


class TestAdaptiveRunner:
    """The promise-driven protocol delivers the reference order.

    The harness pits two runner threads against each other over queue
    transports: every (send schedule, link asymmetry) must produce the
    delivery log of :func:`expected_deliveries` — the order one shared
    simulator would dispatch — including sends landing exactly on
    window boundaries (where retry timers such as link-RTO expiries
    fire) and frames straddling widened multi-window rounds.
    """

    W = 0.1
    DURATION = 1.0

    def exchange(self, sends_a, sends_b, la, lb):
        logs, rounds, frames = run_shard_pair(
            sends_a, sends_b, la, lb, self.DURATION, self.W
        )
        assert logs[0] == expected_deliveries(sends_b, lb, self.DURATION)
        assert logs[1] == expected_deliveries(sends_a, la, self.DURATION)
        return logs, rounds, frames

    def test_symmetric_chatter_is_identical(self):
        sends_a = [(0.05 * i, f"a{i}") for i in range(18)]
        sends_b = [(0.07 * i, f"b{i}") for i in range(14)]
        logs, _, _ = self.exchange(sends_a, sends_b, self.W, self.W)
        assert logs[1] == [
            (pytest.approx(t + self.W), p) for t, p in sends_a
        ]

    def test_wide_links_widen_rounds_without_reordering(self):
        # Lookahead 5x the base window: rounds widen to several
        # windows, and frames straddle the widened boundaries.
        la = lb = 5 * self.W
        sends_a = [(0.033 * i, f"a{i}") for i in range(28)]
        sends_b = [(0.051 * i, f"b{i}") for i in range(18)]
        _, rounds, frames = self.exchange(sends_a, sends_b, la, lb)
        # The point of silence: fewer frames than rounds x links (each
        # side sends on one link).
        for side in (0, 1):
            assert frames[side] < rounds[side]

    def test_window_edge_sends_are_exact(self):
        # Sends exactly at k*W — the stamp class retry timers (e.g.
        # link-RTO expiries rescheduled a whole RTO apart) produce.
        sends_a = [(k * self.W, f"edge{k}") for k in range(1, 9)]
        sends_b = [(k * self.W / 2, f"half{k}") for k in range(1, 17)]
        self.exchange(sends_a, sends_b, self.W, 2 * self.W)

    def test_silent_side_uses_null_frames(self):
        sends_a = [(0.21, "lonely")]
        logs, _, _ = self.exchange(sends_a, [], self.W, self.W)
        assert logs[1] == [(pytest.approx(0.31), "lonely")]
        assert logs[0] == []

    @given(
        grid_a=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=39),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=24,
        ),
        grid_b=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=39),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=24,
        ),
        la_quarters=st.integers(min_value=4, max_value=20),
        lb_quarters=st.integers(min_value=4, max_value=20),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_adaptive_order_matches_fixed(
        self, grid_a, grid_b, la_quarters, lb_quarters
    ):
        """Random quarter-window grids (boundary hits included) and
        asymmetric lookaheads: the adaptive exchange injects in the
        order the fixed base-window grid defines — delivery stamp,
        ties in send order."""
        quarter = self.W / 4
        sends_a = [
            (k * quarter, ("a", i, k, j))
            for i, (k, j) in enumerate(grid_a)
        ]
        sends_b = [
            (k * quarter, ("b", i, k, j))
            for i, (k, j) in enumerate(grid_b)
        ]
        self.exchange(
            sends_a, sends_b, la_quarters * quarter, lb_quarters * quarter
        )
