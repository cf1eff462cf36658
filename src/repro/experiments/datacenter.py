"""Multi-host datacenter scenarios on the sharded parallel kernel.

A :class:`DatacenterScenario` partitions the RUBBoS tier chain across
the hosts of a :class:`~repro.cloud.topology.RackTopology`: each host
is one **shard** with its own deployment slice and RNG streams;
cross-host tier→tier RPCs travel as timestamped frames through
:class:`~repro.net.fabric.CrossHostLink` channels under the
conservative safe-window protocol of :mod:`repro.sim.sharded`
(DESIGN.md §12).

``run_datacenter(scenario, shards=1)`` executes every shard domain
side by side inside **one** simulator (deliveries scheduled directly
at send time) — the reference interleaving.  ``shards=K`` for
``2 <= K <= n`` runs ``K`` worker processes, each owning a contiguous
*group* of shard domains in one simulator: channels inside a group
stay direct (:class:`~repro.sim.sharded.LocalChannel`), only
cross-group channels go through the frame exchange, whose base window
is the min lookahead over the *cross-group* links.  The groups balance
*estimated events*, not host counts (:func:`shard_groups`): each
shard's weight is the processor-sharing bursts its tiers serve per
client request (:meth:`DatacenterScenario.shard_weights`), and the
cuts minimise the heaviest group.  ``K == n`` is the
one-host-per-worker sharding; dispatch order within each simulator is
identical to the reference in every mode, so request CSVs and event
counts match byte for byte (``tests/test_determinism.py``) while the
wall clock drops with the core count (``benchmarks/bench_shard.py``).

Workers exchange **adaptive** safe windows over the **packed** frame
transport (struct rows + per-link string interning instead of
per-message pickling), byte-identical to the reference.

Scenarios may carry a :class:`ShardBulk`: every shard then hosts a
per-host million-user fluid bulk
(:class:`~repro.sim.hybrid.FluidEngine` over the shard's local tier
slice), coupled into the discrete tiers as background load — the
datacenter flavour of the hybrid engine, closed-loop per host so no
fluid mass crosses shard boundaries (the cross-host traffic stays
fully discrete and exactly synchronized).

Every shard's world comes from the one RUBBoS world builder,
:func:`~repro.experiments.runner.build_world` — the function
``run_rubbos`` builds the full chain with — over the shard's tier
slice, in its fixed order: deployment, population (front shard only),
memory adversary (attack shard only), fluid bulk.  The boundary
wiring follows (remote stubs, replica dispatcher, remote-call server),
none of which schedules an event when built.  Both modes build every
group through one function, :func:`_build_group`: *identical*
per-shard domains — same construction order, same marshalled RPC
frames, same name-addressed RNG streams
(:class:`~repro.sim.rng.RandomStreams` substreams depend only on
``(seed, name)``, never on draw order elsewhere) — which is what makes
the equivalence hold by construction rather than by luck.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import traceback
from dataclasses import dataclass, replace
from multiprocessing import connection as mp_connection
from math import inf
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..cloud.topology import RackTopology
from ..net.fabric import CrossHostLink
from ..ntier.remote import RemoteTierServer, RemoteTierStub
from ..ntier.replicated import ReplicatedTier
from ..ntier.request import Request
from ..obs.sketch import LogHistogram
from ..sim.core import Simulator
from ..sim.hybrid import HybridConfig
from ..sim.rng import RandomStreams
from ..sim.sharded import (
    EventCounter,
    FrameChannel,
    LocalChannel,
    PackedConnection,
    ShardRunner,
    ShardWindow,
)
from ..workload.rubbos import (
    RUBBOS_PAGES,
    RUBBOS_TRANSITIONS,
    markov_stationary,
)
from .configs import AttackSpec, RubbosScenario
from .runner import (
    World,
    _population_frozen,
    build_world,
    split_attack_program,
)
from .summary import completed_after_warmup

__all__ = [
    "DATACENTERS",
    "DC_2HOST",
    "DC_4HOST",
    "DC_8HOST",
    "DC_16HOST",
    "DatacenterRun",
    "DatacenterScenario",
    "ShardBulk",
    "ShardResult",
    "ShardSpec",
    "run_datacenter",
    "shard_groups",
]


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a topology host serving a contiguous chain slice."""

    host: str
    tiers: Tuple[str, ...]


@dataclass(frozen=True)
class ShardBulk:
    """Per-host fluid bulk riding along every shard (hybrid mode).

    Each shard worker runs an independent closed-loop
    :class:`~repro.sim.hybrid.FluidEngine` of ``users_per_host`` bulk
    users over its *local* tier slice — background load for the
    discrete cross-host traffic, per host, so the fluid state never
    crosses a shard boundary and the safe-window protocol is untouched.
    The engine runs at :class:`~repro.sim.hybrid.HybridConfig`'s
    defaults (Euler tick, bulk RTO, publish window).
    """

    users_per_host: int
    think_time: float

    def __post_init__(self) -> None:
        if self.users_per_host < 1:
            raise ValueError(
                f"users_per_host must be >= 1: {self.users_per_host}"
            )
        if self.think_time <= 0:
            raise ValueError(
                f"think_time must be positive: {self.think_time}"
            )


@dataclass(frozen=True)
class _Edge:
    """One remote-call boundary: upstream shard → downstream shard."""

    id: int
    upstream: int
    downstream: int
    #: First tier of the downstream shard (the tier being called).
    tier: str


@dataclass(frozen=True)
class DatacenterScenario:
    """A RUBBoS scenario spread across topology hosts.

    ``shards`` lists hosts front-to-back; each serves a contiguous
    slice of the tier chain.  Replicas — several trailing shards with
    the same single back tier — are dispatched to by a
    :class:`~repro.ntier.replicated.ReplicatedTier` of remote stubs on
    the upstream shard.  The base scenario's attack co-locates with the
    shard owning its target tier (the first replica when replicated).
    """

    name: str
    base: RubbosScenario
    topology: RackTopology
    shards: Tuple[ShardSpec, ...]
    #: Per-host fluid bulk (hybrid-mode shards); None = pure DES.
    bulk: Optional[ShardBulk] = None

    def __post_init__(self) -> None:
        if len(self.shards) < 2:
            raise ValueError("a datacenter scenario needs >= 2 shards")
        if self.base.network is not None:
            raise ValueError(
                "datacenter scenarios model the fabric via cross-host "
                "links; base.network must be None"
            )
        if self.base.hybrid is not None:
            raise ValueError(
                "datacenter scenarios run full DES for the discrete "
                "population; use bulk=ShardBulk(...) for the per-host "
                "fluid bulk"
            )
        if self.base.attack is not None:
            _, wants_nic = split_attack_program(self.base.attack.program)
            if wants_nic:
                raise ValueError(
                    "NIC attacks need an intra-host TierNetwork; "
                    "datacenter scenarios support memory programs only"
                )
        hosts = [spec.host for spec in self.shards]
        if len(set(hosts)) != len(hosts):
            raise ValueError(f"duplicate shard hosts: {hosts}")
        for host in hosts:
            self.topology.rack_of(host)  # raises KeyError if unknown
        self.layout()  # validates the chain tiling

    def chain(self) -> Tuple[str, ...]:
        """The full tier chain, front-to-back."""
        return tuple(t.name for t in self.base.deployment_config().tiers)

    def layout(self) -> Tuple[Tuple[_Edge, ...], Tuple[int, ...]]:
        """Validate the shard tiling; return (edges, replica shards).

        Edges appear in chain order; for a replicated back tier the
        upstream shard carries one edge per replica.
        """
        chain = self.chain()
        slices = [spec.tiers for spec in self.shards]
        edges: List[_Edge] = []
        replicas: Tuple[int, ...] = ()
        cursor = 0
        prev: Optional[int] = None
        i = 0
        while i < len(slices):
            tiers = slices[i]
            if tiers != chain[cursor : cursor + len(tiers)]:
                raise ValueError(
                    f"shard {i} tiers {tiers!r} do not continue the "
                    f"chain {chain!r} at position {cursor}"
                )
            group = [i]
            while i + len(group) < len(slices) and slices[
                i + len(group)
            ] == tiers:
                group.append(i + len(group))
            if len(group) > 1:
                if len(tiers) != 1 or cursor + 1 != len(chain):
                    raise ValueError(
                        "replicas are only supported for the single "
                        f"back tier, got {tiers!r} x{len(group)}"
                    )
                replicas = tuple(group)
            if prev is not None:
                for member in group:
                    edges.append(
                        _Edge(len(edges), prev, member, tiers[0])
                    )
            elif cursor != 0:
                raise ValueError("first shard must serve the front tier")
            prev = group[-1]
            cursor += len(tiers)
            i += len(group)
        if cursor != len(chain):
            raise ValueError(
                f"shards cover {chain[:cursor]!r}, chain is {chain!r}"
            )
        return tuple(edges), replicas

    # -- derived protocol parameters -----------------------------------

    def channel_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """Every directed host pair a channel runs over (call + reply)."""
        edges, _ = self.layout()
        pairs: List[Tuple[str, str]] = []
        for edge in edges:
            src = self.shards[edge.upstream].host
            dst = self.shards[edge.downstream].host
            pairs.append((src, dst))
            pairs.append((dst, src))
        return tuple(pairs)

    @property
    def window(self) -> float:
        """The conservative safe-window width (min link lookahead)."""
        return self.topology.min_lookahead(self.channel_pairs())

    def shard_weights(self) -> Tuple[float, ...]:
        """Estimated kernel work per client request, per shard.

        A tier's weight is its expected processor-sharing bursts per
        client request under the RUBBoS page mix: a page reaches a tier
        only if every tier up to it has a non-zero mean demand (apache
        1.0, tomcat 0.92, mysql 0.92 of the stationary mix), and a
        visit that also calls downstream burns its demand in two bursts
        (``Tier.work_split``: before and after the call).  A replicated
        tier's weight splits evenly across its replicas; a shard's
        weight is its tiers' sum.  dc-4host: 0.41/0.39/0.10/0.10 of the
        total, against 0.40/0.40/0.10/0.10 of the events measured at
        one worker per host.
        """
        chain = self.chain()
        reached = list(
            zip(markov_stationary(RUBBOS_TRANSITIONS), RUBBOS_PAGES)
        )
        tier_weight: Dict[str, float] = {}
        for i, tier in enumerate(chain):
            reached = [(p, page) for p, page in reached if page.mean(tier) > 0]
            below = chain[i + 1] if i + 1 < len(chain) else None
            tier_weight[tier] = float(
                sum(
                    p * (2 if below and page.mean(below) > 0 else 1)
                    for p, page in reached
                )
            )
        _, replicas = self.layout()
        weights = []
        for index, spec in enumerate(self.shards):
            share = 1.0 / len(replicas) if index in replicas else 1.0
            weights.append(share * sum(tier_weight[t] for t in spec.tiers))
        return tuple(weights)

    def attack_shard(self) -> Optional[int]:
        """Index of the shard the adversary co-locates with."""
        if self.base.attack is None:
            return None
        target = self.base.attack.target_tier
        if target is None:
            target = self.chain()[-1]
        for index, spec in enumerate(self.shards):
            if target in spec.tiers:
                return index
        raise ValueError(f"attack target {target!r} is on no shard")


#: Channel ids: edge ``e`` owns call channel ``2e`` (upstream →
#: downstream) and reply channel ``2e + 1`` (downstream → upstream) —
#: a channel's reverse is always ``cid ^ 1``.
def _channel_specs(
    scenario: DatacenterScenario,
) -> List[Tuple[int, int, int, str, str]]:
    """(channel_id, sender_shard, receiver_shard, src_host, dst_host)."""
    edges, _ = scenario.layout()
    specs = []
    for edge in edges:
        up_host = scenario.shards[edge.upstream].host
        down_host = scenario.shards[edge.downstream].host
        specs.append(
            (2 * edge.id, edge.upstream, edge.downstream, up_host, down_host)
        )
        specs.append(
            (2 * edge.id + 1, edge.downstream, edge.upstream, down_host, up_host)
        )
    return specs


def _make_link(
    scenario: DatacenterScenario,
    sim: Simulator,
    src_host: str,
    dst_host: str,
) -> CrossHostLink:
    """Build the cross-host link for one directed channel.

    The link's guaranteed lookahead must dominate the scenario window;
    the assertion catches any drift between the topology matrix and
    the link's stage arithmetic.
    """
    topology = scenario.topology
    spec = topology.link(src_host, dst_host)
    link = CrossHostLink(
        sim,
        f"{src_host}->{dst_host}",
        nic_rate=topology.nic_rate,
        link_latency=spec.latency,
        link_rate=spec.rate,
    )
    assert link.lookahead == topology.lookahead(src_host, dst_host)
    return link


# -- execution groups -------------------------------------------------------


def _min_max_partition(weights: Sequence[float], k: int) -> List[List[int]]:
    """Split ``0..n-1`` into ``k`` contiguous non-empty groups whose
    heaviest group weight is least (the linear-partition DP,
    O(k·n²)); among equally heavy splits, each cut sits earliest."""
    n = len(weights)
    prefix = [0.0]
    for weight in weights:
        prefix.append(prefix[-1] + weight)
    # best[j][i]: least heaviest-group weight over splits of the first
    # i items into j groups; start[j][i]: where the last group begins.
    best = [[inf] * (n + 1) for _ in range(k + 1)]
    start = [[0] * (n + 1) for _ in range(k + 1)]
    best[0][0] = 0.0
    for j in range(1, k + 1):
        for i in range(j, n - (k - j) + 1):
            for s in range(j - 1, i):
                cost = max(best[j - 1][s], prefix[i] - prefix[s])
                if cost < best[j][i]:
                    best[j][i] = cost
                    start[j][i] = s
    groups: List[List[int]] = []
    end = n
    for j in range(k, 0, -1):
        groups.append(list(range(start[j][end], end)))
        end = start[j][end]
    return groups[::-1]


def shard_groups(scenario: DatacenterScenario, shards: int) -> List[List[int]]:
    """The worker groups ``run_datacenter`` uses for ``shards`` workers.

    Groups are contiguous runs of shard indices — shard 0, the front,
    always leads group 0 — cut to minimise the heaviest group's
    :meth:`~DatacenterScenario.shard_weights` sum.  dc-4host at two
    workers is ``[[0], [1, 2, 3]]``: apache alone, tomcat with both
    mysql replicas, leaving the spine link as the only cross-group
    one.  ``shards=1`` is the one group of every shard; ``shards=n``
    one group per shard.
    """
    n = len(scenario.shards)
    if not 1 <= shards <= n:
        raise ValueError(
            f"{scenario.name} has {n} shards; run with 1 <= shards <= "
            f"{n}, got {shards}"
        )
    return _min_max_partition(scenario.shard_weights(), shards)


def _group_window(
    scenario: DatacenterScenario, group_of: Dict[int, int]
) -> float:
    """Base safe-window width: min lookahead over cross-group links."""
    pairs = []
    for _, sender, receiver, src, dst in _channel_specs(scenario):
        if group_of[sender] != group_of[receiver]:
            pairs.append((src, dst))
    return scenario.topology.min_lookahead(pairs)


@dataclass
class _Domain:
    """One shard's built world plus its boundary wiring."""

    world: World
    server: Optional[RemoteTierServer]
    stubs: List[RemoteTierStub]
    sketch: LogHistogram

    @property
    def app(self):
        return self.world.deployment.app


def _build_domain(
    scenario: DatacenterScenario,
    index: int,
    sim: Simulator,
    out_channels: Dict[int, Any],
    in_channels: Dict[int, Any],
) -> _Domain:
    """Construct shard ``index``'s world on ``sim``.

    The world is :func:`~repro.experiments.runner.build_world` over the
    shard's tier slice — the builder ``run_rubbos`` uses — carrying the
    adversary only on the attack shard and the per-host bulk on every
    shard.  The boundary wiring follows: remote stubs (edge order) for
    the next tier down, then the server for the calls coming in.
    ``out_channels`` / ``in_channels`` map channel ids to channel
    objects (``LocalChannel`` or ``FrameChannel`` — same surface).
    Neither stubs nor server schedule events when built.
    """
    spec = scenario.shards[index]
    base = scenario.base
    if scenario.attack_shard() != index:
        base = replace(base, attack=None)
    bulk = None
    if scenario.bulk is not None:
        bulk = (
            scenario.bulk.users_per_host,
            scenario.bulk.think_time,
            HybridConfig(sample_fraction=1.0),
        )
    streams = RandomStreams(base.seed)
    world = build_world(
        sim, base, streams, users=base.users, bulk=bulk, tiers=spec.tiers
    )
    app = world.deployment.app
    sketch = LogHistogram()
    edges, _ = scenario.layout()

    stubs: List[RemoteTierStub] = []
    my_calls = [e for e in edges if e.upstream == index]
    if my_calls:
        remote_name = my_calls[0].tier
        concurrency = {
            t.name: t.concurrency for t in base.deployment_config().tiers
        }
        for edge in my_calls:
            stub = RemoteTierStub(
                sim,
                remote_name,
                out_channels[2 * edge.id],
                concurrency=concurrency[remote_name],
            )
            in_channels[2 * edge.id + 1].bind(stub.deliver)
            stubs.append(stub)
        if len(stubs) > 1:
            remote: Any = ReplicatedTier(
                sim, remote_name, stubs, rng=streams.get("dispatch")
            )
        else:
            remote = stubs[0]
        app.tiers[-1].downstream = remote

    server: Optional[RemoteTierServer] = None
    my_serves = [e for e in edges if e.downstream == index]
    if my_serves:
        (edge,) = my_serves
        server = RemoteTierServer(
            sim, app.front, out_channels[2 * edge.id + 1], sketch=sketch
        )
        in_channels[2 * edge.id].bind(server.dispatch)

    return _Domain(world=world, server=server, stubs=stubs, sketch=sketch)


@dataclass
class ShardResult:
    """One shard's aggregates after a run.

    Event counters are per *simulator*: the unsharded reference
    reports the whole count on shard 0, a grouped run on each group's
    first member (only the *sum* is meaningful in any mode — that is
    the quantity the determinism gate compares).  ``frames`` /
    ``wire_bytes`` follow the same convention (exchange totals of the
    member's group).
    """

    index: int
    host: str
    tiers: Tuple[str, ...]
    events: int
    windows: int
    sent: int
    received: int
    #: tier name -> (arrivals, completions, drops).
    tier_stats: Dict[str, Tuple[int, int, int]]
    sketch: LogHistogram
    #: Per-host fluid-bulk aggregates (hybrid scenarios only).
    fluid: Optional[Dict[str, float]] = None
    #: Frames this shard's group put on the wire (0 when unsharded).
    frames: int = 0
    #: Frame bytes the group put on the wire (0 when unsharded).
    wire_bytes: int = 0


@dataclass
class _Group:
    """A contiguous run of shard domains sharing one simulator.

    The unsharded reference is the one group holding every shard; a
    sharded run builds one group per worker, as cut by
    :func:`shard_groups`.
    """

    members: List[int]
    domains: List[_Domain]
    counter: EventCounter
    #: member -> {channel id: channel} it sends on / receives from.
    out_channels: Dict[int, Dict[int, Any]]
    in_channels: Dict[int, Dict[int, Any]]
    #: Cross-group channels (frame-buffered), by channel id.
    cross_out: Dict[int, FrameChannel]
    cross_in: Dict[int, FrameChannel]

    def results(
        self,
        scenario: DatacenterScenario,
        windows: int = 0,
        frames: int = 0,
        wire_bytes: int = 0,
        cross_received: Optional[Dict[int, int]] = None,
    ) -> List[ShardResult]:
        """Per-member results after the run.

        Every member reports the group's ``windows``; the event count,
        ``frames`` and ``wire_bytes`` land on the first member only.
        ``cross_received`` counts the messages that arrived on each
        cross-group channel (its receiver-side shell sends nothing).
        """
        cross_received = cross_received or {}
        results = []
        for position, (index, domain) in enumerate(
            zip(self.members, self.domains)
        ):
            first = position == 0
            if domain.world.population is not None:
                # Front shard: observe every client response time.
                for request in domain.app.completed:
                    rt = request.response_time
                    if rt is not None:
                        domain.sketch.observe(rt)
            engine = domain.world.fluid
            fluid = None
            if engine is not None:
                fluid = {
                    "bulk_users": float(engine.bulk_users),
                    "completed": engine.completed,
                    "dropped": engine.dropped,
                }
            results.append(
                ShardResult(
                    index=index,
                    host=scenario.shards[index].host,
                    tiers=scenario.shards[index].tiers,
                    events=self.counter.count if first else 0,
                    windows=windows,
                    sent=sum(
                        ch.sent for ch in self.out_channels[index].values()
                    ),
                    received=sum(
                        cross_received.get(cid, ch.sent)
                        for cid, ch in self.in_channels[index].items()
                    ),
                    tier_stats={
                        tier.name: (
                            tier.arrivals,
                            tier.completions,
                            tier.drops,
                        )
                        for tier in domain.app.tiers
                    },
                    sketch=domain.sketch,
                    fluid=fluid,
                    frames=frames if first else 0,
                    wire_bytes=wire_bytes if first else 0,
                )
            )
        return results

    def client_requests(self) -> Tuple[List[Request], List[Request]]:
        """(completed, failed) client requests; empty off the front."""
        front = self.domains[0]
        if front.world.population is None:
            return [], []
        return list(front.app.completed), list(front.app.failed)


def _build_group(
    scenario: DatacenterScenario, members: List[int], sim: Simulator
) -> _Group:
    """Build the shard domains ``members`` on ``sim``.

    Channels are built in global channel-id order: channels inside the
    group stay direct (:class:`~repro.sim.sharded.LocalChannel`),
    cross-group channels buffer frames (a receiver-side
    :class:`~repro.sim.sharded.FrameChannel` is a shell carrying only
    the bound handler — the sender's link computed the delivery
    timestamps).  Domains follow in member order.
    """
    counter = EventCounter()
    sim.attach_hooks(counter)
    member_set = set(members)
    out_channels: Dict[int, Dict[int, Any]] = {m: {} for m in members}
    in_channels: Dict[int, Dict[int, Any]] = {m: {} for m in members}
    cross_out: Dict[int, FrameChannel] = {}
    cross_in: Dict[int, FrameChannel] = {}
    for cid, sender, receiver, src, dst in _channel_specs(scenario):
        if sender in member_set and receiver in member_set:
            channel: Any = LocalChannel(
                _make_link(scenario, sim, src, dst), sim
            )
            out_channels[sender][cid] = channel
            in_channels[receiver][cid] = channel
        elif sender in member_set:
            channel = FrameChannel(_make_link(scenario, sim, src, dst))
            out_channels[sender][cid] = channel
            cross_out[cid] = channel
        elif receiver in member_set:
            channel = FrameChannel(None)
            in_channels[receiver][cid] = channel
            cross_in[cid] = channel
    domains = [
        _build_domain(
            scenario, index, sim, out_channels[index], in_channels[index]
        )
        for index in members
    ]
    return _Group(
        members=members,
        domains=domains,
        counter=counter,
        out_channels=out_channels,
        in_channels=in_channels,
        cross_out=cross_out,
        cross_in=cross_in,
    )


@dataclass
class DatacenterRun:
    """Everything a datacenter experiment reports."""

    scenario: DatacenterScenario
    shards_used: int
    #: Base safe-window width: min lookahead over cross-group links
    #: (over every link when unsharded).
    window: float
    #: Shard indices per worker group (:func:`shard_groups`).
    groups: List[List[int]]
    shard_results: List[ShardResult]
    #: Client-side requests from the front shard, completion order.
    completed: List[Request]
    failed: List[Request]

    @property
    def event_count(self) -> int:
        """Total dispatched events across every shard simulator."""
        return sum(result.events for result in self.shard_results)

    @property
    def frames_exchanged(self) -> int:
        """Total frames sent across all cross-group links."""
        return sum(result.frames for result in self.shard_results)

    @property
    def wire_bytes(self) -> int:
        """Total frame bytes sent across all cross-group links."""
        return sum(result.wire_bytes for result in self.shard_results)

    @property
    def rounds(self) -> int:
        """Exchange rounds the slowest shard ran (0 when unsharded)."""
        return max(
            (result.windows for result in self.shard_results), default=0
        )

    @property
    def latency(self) -> LogHistogram:
        """All shards' latency sketches merged into one histogram.

        The front shard observes client response times; server shards
        observe their remote-call service times — one mergeable view of
        where time is spent across the fabric.
        """
        merged = LogHistogram()
        for result in self.shard_results:
            merged.merge(result.sketch)
        return merged

    @property
    def fluid_totals(self) -> Optional[Dict[str, float]]:
        """Summed per-host bulk aggregates, or None without a bulk."""
        stats = [r.fluid for r in self.shard_results if r.fluid]
        if not stats:
            return None
        return {
            "bulk_users": sum(s["bulk_users"] for s in stats),
            "completed": sum(s["completed"] for s in stats),
            "dropped": sum(s["dropped"] for s in stats),
        }

    def client_requests(self) -> List[Request]:
        """Completed requests that finished after warmup."""
        return completed_after_warmup(
            self.completed, self.scenario.base.warmup
        )

    def tier_stat(self, tier: str) -> Tuple[int, int, int]:
        """(arrivals, completions, drops) for ``tier`` across shards."""
        totals = [0, 0, 0]
        for result in self.shard_results:
            stats = result.tier_stats.get(tier)
            if stats is not None:
                for i in range(3):
                    totals[i] += stats[i]
        return tuple(totals)


def _default_stride(window: float) -> int:
    """Progress roughly once per simulated second of ``window``s."""
    return max(1, int(round(1.0 / window)))


def _run_single(scenario: DatacenterScenario) -> DatacenterRun:
    """Reference mode: every shard domain in one shared simulator."""
    sim = Simulator()
    group = _build_group(scenario, list(range(len(scenario.shards))), sim)
    with _population_frozen():
        sim.run(until=scenario.base.duration)
    completed, failed = group.client_requests()
    return DatacenterRun(
        scenario=scenario,
        shards_used=1,
        window=scenario.window,
        groups=[group.members],
        shard_results=group.results(scenario),
        completed=completed,
        failed=failed,
    )


def _worker_main(
    scenario: DatacenterScenario,
    members: List[int],
    window: float,
    out_conns: Dict[int, Any],
    in_conns: Dict[int, Any],
    result_conn: Any,
    window_stride: int,
    cpu: Optional[int],
) -> None:
    """One group worker: build its shard domains, run the exchange
    loop, ship its shard results and client requests.

    The cyclic collector stays off for the worker's whole life: its
    garbage dies by reference counting (finished processes are not
    cycles), and the process exits right after shipping, so nothing is
    ever unfrozen or swept.  ``cpu``, if set, is the one CPU this
    worker runs on (:func:`_worker_cpus`).
    """
    gc.disable()
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        sim = Simulator()
        group = _build_group(scenario, members, sim)
        counter = group.counter
        host = scenario.shards[members[0]].host

        def on_window(win: int, now: float, sent: int, received: int):
            result_conn.send(
                (
                    "window",
                    members[0],
                    host,
                    win,
                    now,
                    counter.count,
                    sent,
                    received,
                )
            )

        out_cids = sorted(group.cross_out)
        in_cids = sorted(group.cross_in)
        in_rank = {cid: rank for rank, cid in enumerate(in_cids)}
        runner = ShardRunner(
            sim,
            duration=scenario.base.duration,
            window=window,
            outgoing=[
                (PackedConnection(out_conns[cid]), group.cross_out[cid])
                for cid in out_cids
            ],
            incoming=[
                (PackedConnection(in_conns[cid]), group.cross_in[cid])
                for cid in in_cids
            ],
            # A channel's reverse (same host pair, opposite direction)
            # is cid ^ 1; it crosses the same group boundary, so it is
            # always present on the incoming side.
            reverse=[in_rank[cid ^ 1] for cid in out_cids],
            on_window=on_window,
            window_stride=window_stride,
        )
        # The kernel's batched generation-1 collections then skip the
        # constructed world.
        gc.freeze()
        runner.run()
        results = group.results(
            scenario,
            windows=runner.windows,
            frames=runner.frames_sent,
            wire_bytes=runner.bytes_sent,
            cross_received={
                cid: runner.received_per_link[rank]
                for cid, rank in in_rank.items()
            },
        )
        result_conn.send(
            ("done", members[0], (results, group.client_requests()))
        )
    except BaseException:
        result_conn.send(("error", members[0], traceback.format_exc()))


def _worker_cpus(workers: int) -> List[Optional[int]]:
    """The CPU each of ``workers`` shard workers pins itself to.

    Worker ``g`` gets the ``g``-th CPU this process may run on, so no
    two workers share a core and a frame send never wakes the peer onto
    the sender's CPU.  With more workers than allowed CPUs, or without
    ``os.sched_setaffinity``, no worker is pinned (all ``None``).
    """
    if not hasattr(os, "sched_setaffinity"):
        return [None] * workers
    allowed = sorted(os.sched_getaffinity(0))
    if workers > len(allowed):
        return [None] * workers
    return allowed[:workers]


def run_datacenter(
    scenario: DatacenterScenario,
    shards: Optional[int] = None,
    progress: Optional[Callable[[ShardWindow], None]] = None,
    bus: Any = None,
    window_stride: Optional[int] = None,
) -> DatacenterRun:
    """Execute a datacenter scenario.

    ``shards=1`` runs the unsharded reference (one simulator);
    ``shards=K`` for ``2 <= K <= n`` runs ``K`` worker processes over
    the contiguous, event-weighted groups of :func:`shard_groups`
    (``K = n``, the default, is one worker per host), byte-identical to
    the reference.  ``progress`` and/or ``bus`` receive
    :class:`~repro.sim.sharded.ShardWindow` reports — the bus on topic
    ``"shard.window"`` — throttled to roughly one per group per
    simulated second of the run's base window (override with
    ``window_stride``).
    """
    if shards is None:
        shards = len(scenario.shards)
    groups = shard_groups(scenario, shards)
    if shards == 1:
        return _run_single(scenario)
    group_of = {
        index: g for g, members in enumerate(groups) for index in members
    }
    window = _group_window(scenario, group_of)
    stride = window_stride or _default_stride(window)
    ctx = mp.get_context("fork")
    # One pipe per cross-group channel, endpoints handed to the two
    # workers; one result pipe per worker back to the coordinator.
    chan_recv: Dict[int, Any] = {}
    chan_send: Dict[int, Any] = {}
    specs = _channel_specs(scenario)
    cross = [
        spec for spec in specs if group_of[spec[1]] != group_of[spec[2]]
    ]
    for cid, _, _, _, _ in cross:
        r, w = ctx.Pipe(duplex=False)
        chan_recv[cid] = r
        chan_send[cid] = w
    result_conns = []
    workers = []
    for members, cpu in zip(groups, _worker_cpus(len(groups))):
        member_set = set(members)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        out_conns = {
            cid: chan_send[cid]
            for cid, s, _, _, _ in cross
            if s in member_set
        }
        in_conns = {
            cid: chan_recv[cid]
            for cid, _, r, _, _ in cross
            if r in member_set
        }
        worker = ctx.Process(
            target=_worker_main,
            args=(
                scenario,
                members,
                window,
                out_conns,
                in_conns,
                child_conn,
                stride,
                cpu,
            ),
            name=f"shard-{members[0]}-{scenario.shards[members[0]].host}",
        )
        worker.start()
        # Only the worker may hold the write end: a worker that dies
        # without reporting then reads as EOF here instead of a hang.
        child_conn.close()
        result_conns.append(parent_conn)
        workers.append(worker)

    payloads: Dict[int, Any] = {}
    pending = set(result_conns)
    failure: Optional[str] = None
    # Payloads are megabytes of pickled requests: unpickle them without
    # the collector re-walking every freshly built batch.
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        while pending and failure is None:
            for conn in mp_connection.wait(list(pending)):
                try:
                    message = conn.recv()
                except EOFError:
                    failure = "shard worker died without reporting"
                    break
                kind = message[0]
                if kind == "window":
                    _, idx, host, win, now, events, sent, received = message
                    report = ShardWindow(
                        shard=idx,
                        host=host,
                        index=win,
                        now=now,
                        events=events,
                        sent=sent,
                        received=received,
                    )
                    if bus is not None:
                        bus.publish("shard.window", report)
                    if progress is not None:
                        progress(report)
                elif kind == "done":
                    payloads[message[1]] = message[2]
                    pending.discard(conn)
                else:  # "error"
                    failure = message[2]
                    break
    finally:
        # A failure, or an exception out of the loop, leaves workers
        # unreported: stop them rather than join a blocked exchange.
        if pending:
            for worker in workers:
                worker.terminate()
        for worker in workers:
            worker.join()
        if gc_enabled:
            gc.enable()
    if failure is not None:
        raise RuntimeError(f"sharded run failed:\n{failure}")

    results: List[ShardResult] = []
    for members in groups:
        results.extend(payloads[members[0]][0])
    # Contiguous groups: shard 0, the front, is the first group's.
    completed, failed = payloads[groups[0][0]][1]
    return DatacenterRun(
        scenario=scenario,
        shards_used=shards,
        window=window,
        groups=groups,
        shard_results=results,
        completed=completed,
        failed=failed,
    )


#: Two hosts in two racks across the spine: apache+tomcat face the
#: clients, mysql sits alone with the co-located lock adversary.  The
#: determinism golden pins this scenario sharded and unsharded.
DC_2HOST = DatacenterScenario(
    name="dc-2host",
    base=replace(
        RubbosScenario(name="private-cloud").with_users(300),
        name="dc-2host-base",
        duration=6.0,
        warmup=1.0,
        seed=23,
        attack=AttackSpec(program="lock"),
    ),
    topology=RackTopology(
        racks=(("r1", ("h1",)), ("r2", ("h2",))),
    ),
    shards=(
        ShardSpec(host="h1", tiers=("apache", "tomcat")),
        ShardSpec(host="h2", tiers=("mysql",)),
    ),
)

#: Four hosts, two racks: apache and the mysql replicas split across
#: racks, tomcat dispatching to a ReplicatedTier of remote stubs — the
#: cross-rack replicated-bottleneck scenario the single-host kernel
#: could not express.  The adversary co-locates with replica 0 (h2),
#: so one replica degrades while its rack-peer stays clean.  The
#: roomier link latencies widen the safe window for the speedup bench.
DC_4HOST = DatacenterScenario(
    name="dc-4host",
    base=replace(
        RubbosScenario(name="private-cloud").with_users(30000),
        name="dc-4host-base",
        duration=8.0,
        warmup=1.0,
        seed=29,
        attack=AttackSpec(program="lock"),
    ),
    topology=RackTopology(
        racks=(("r1", ("h1", "h2")), ("r2", ("h3", "h4"))),
        tor_latency=0.006,
        spine_latency=0.012,
    ),
    shards=(
        ShardSpec(host="h1", tiers=("apache",)),
        ShardSpec(host="h3", tiers=("tomcat",)),
        ShardSpec(host="h2", tiers=("mysql",)),
        ShardSpec(host="h4", tiers=("mysql",)),
    ),
)

#: Eight hosts over four AZ racks (two hosts each): six mysql replicas
#: behind one tomcat, the adversary on replica 0 (h5, az3).  Ships
#: with a per-host million-user fluid bulk — the default run is the
#: hybrid 8M-user datacenter, pinned by the dc8 determinism golden.
DC_8HOST = DatacenterScenario(
    name="dc-8host",
    base=replace(
        RubbosScenario(name="private-cloud").with_users(2400),
        name="dc-8host-base",
        duration=6.0,
        warmup=1.0,
        seed=31,
        attack=AttackSpec(program="lock"),
    ),
    topology=RackTopology(
        racks=(
            ("az1", ("h1", "h2")),
            ("az2", ("h3", "h4")),
            ("az3", ("h5", "h6")),
            ("az4", ("h7", "h8")),
        ),
        tor_latency=0.006,
        spine_latency=0.012,
    ),
    shards=(
        ShardSpec(host="h1", tiers=("apache",)),
        ShardSpec(host="h3", tiers=("tomcat",)),
        ShardSpec(host="h5", tiers=("mysql",)),
        ShardSpec(host="h7", tiers=("mysql",)),
        ShardSpec(host="h2", tiers=("mysql",)),
        ShardSpec(host="h4", tiers=("mysql",)),
        ShardSpec(host="h6", tiers=("mysql",)),
        ShardSpec(host="h8", tiers=("mysql",)),
    ),
    bulk=ShardBulk(users_per_host=1_000_000, think_time=2500.0),
)

#: Sixteen hosts over four AZ racks (four hosts each): fourteen mysql
#: replicas, per-host million-user bulk — 16M users total, the
#: capacity stress for the grouped sharded kernel.
DC_16HOST = DatacenterScenario(
    name="dc-16host",
    base=replace(
        RubbosScenario(name="private-cloud").with_users(3200),
        name="dc-16host-base",
        duration=4.0,
        warmup=1.0,
        seed=37,
        attack=AttackSpec(program="lock"),
    ),
    topology=RackTopology(
        racks=(
            ("az1", ("h1", "h2", "h3", "h4")),
            ("az2", ("h5", "h6", "h7", "h8")),
            ("az3", ("h9", "h10", "h11", "h12")),
            ("az4", ("h13", "h14", "h15", "h16")),
        ),
        tor_latency=0.006,
        spine_latency=0.012,
    ),
    shards=(
        ShardSpec(host="h1", tiers=("apache",)),
        ShardSpec(host="h5", tiers=("tomcat",)),
    )
    + tuple(
        ShardSpec(host=h, tiers=("mysql",))
        for h in (
            "h9",
            "h13",
            "h2",
            "h6",
            "h10",
            "h14",
            "h3",
            "h7",
            "h11",
            "h15",
            "h4",
            "h8",
            "h12",
            "h16",
        )
    ),
    bulk=ShardBulk(users_per_host=1_000_000, think_time=2500.0),
)

#: Registered datacenter scenarios, by name (CLI ``run --shards``).
DATACENTERS: Dict[str, DatacenterScenario] = {
    "dc-2host": DC_2HOST,
    "dc-4host": DC_4HOST,
    "dc-8host": DC_8HOST,
    "dc-16host": DC_16HOST,
}
