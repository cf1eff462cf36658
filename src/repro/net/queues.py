"""Finite queue chains for the inter-tier network path.

A :class:`QueueChain` models one directed tier→tier hop as the real
packet path: sender NIC ring → host qdisc → switch port buffer →
receiver NIC ring.  Every stage is a :class:`FiniteQueue` — a finite
FIFO buffer drained by deterministic serialization at a configurable
rate — so the chain exhibits the behaviors the attack family needs:

* **Drop-tail**: a message arriving at a full stage is discarded and
  the sender retransmits after a TCP RTO (exponential backoff, the
  same :class:`~repro.ntier.tcp.RetransmissionPolicy` machinery the
  client uses).  Because tier RPCs are synchronous, the RTO is slept
  *while the request holds every upstream thread* — a microburst of
  NIC loss stacks into cross-tier queue amplification exactly like a
  memory millibottleneck.
* **ECN**: stages past their marking threshold mark instead of
  dropping (until the buffer is actually full); a marked traversal
  costs the sender one congestion-response pacing delay — the
  window-halving analog, without simulating per-flow cwnd state.

Stages never schedule their own events: a queue is a pair of counters
plus a ``next-free`` serialization horizon, and the *message's own
process* sleeps until its reserved departure time.  Departures are
reserved in arrival order on a monotone horizon, so per-stage FIFO
order is structural, and a whole transfer costs one timed event per
stage — cheap enough to run under every RPC of a full closed-loop run.

Performance note.  :meth:`QueueChain.transfer` walks the stages in its
own frame (no nested per-attempt generator), so each stage sleep
resumes one generator frame fewer inside the caller's ``yield from``
chain, and yields its bare delay, so it allocates no Event: the
process's one reusable wake entry carries it.
:meth:`FiniteQueue.admit`/:meth:`FiniteQueue.depart` stay the only
stage arithmetic, shared with the cross-host link's ``delivery_time``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from ..ntier.tcp import RetransmissionPolicy
from ..ntier.tier import TierOverflowError
from ..sim.core import Simulator

__all__ = [
    "FiniteQueue",
    "NetEvent",
    "NetworkConfig",
    "NetworkOverflowError",
    "QueueChain",
]

#: An attacker may never take the full service rate of a shared stage —
#: hardware arbitration always leaks some descriptors through (the same
#: reason a memory lock duty is capped below 1.0).
MAX_BACKGROUND_SHARE = 0.97


class NetworkOverflowError(TierOverflowError):
    """A message exhausted its link-level retransmissions.

    Subclasses :class:`TierOverflowError` so the client's existing TCP
    retransmission loop treats a hopeless link exactly like a dropped
    SYN: back off, retry the whole request, eventually fail it.
    """


@dataclass(frozen=True)
class NetworkConfig:
    """Queue-chain parameters for every inter-tier hop.

    Rates are in messages/second (one message per RPC direction);
    buffers in messages.  Defaults are sized so the RUBBoS scenarios
    run loss-free without an attacker: ~4 messages per request at a few
    hundred req/s against ring service times of microseconds.  Being a
    frozen dataclass it flows into ``stable_hash`` like
    :class:`~repro.sim.hybrid.HybridConfig`, so the sweep cache keys on
    it automatically.
    """

    #: Sender/receiver NIC ring service rate and size (shared per host).
    nic_rate: float = 120000.0
    nic_buffer: int = 64
    #: Host software qdisc (per-link, not shared).
    qdisc_rate: float = 150000.0
    qdisc_buffer: int = 128
    #: Switch port buffer between the two hosts.
    switch_rate: float = 200000.0
    switch_buffer: int = 256
    #: Propagation + protocol-stack latency per direction; replaces the
    #: tier's fixed ``net_delay`` when the chain is routed.
    propagation: float = 0.0002
    #: ECN marking threshold as a buffer fraction (None = drop-tail
    #: only).  Marked traversals cost ``ecn_penalty`` seconds of sender
    #: pacing instead of a loss.
    ecn_threshold: Optional[float] = None
    ecn_penalty: float = 0.002
    #: Link-level retransmission schedule — the paper's RFC 6298 floor,
    #: reused from the client/hybrid RTO machinery: a dropped message
    #: costs at least ``rto`` seconds while upstream threads are held.
    rto: float = 1.0
    rto_backoff: float = 2.0
    max_retries: int = 6

    def __post_init__(self) -> None:
        for label, rate in (
            ("nic_rate", self.nic_rate),
            ("qdisc_rate", self.qdisc_rate),
            ("switch_rate", self.switch_rate),
        ):
            if rate <= 0:
                raise ValueError(f"{label} must be positive: {rate}")
        for label, buf in (
            ("nic_buffer", self.nic_buffer),
            ("qdisc_buffer", self.qdisc_buffer),
            ("switch_buffer", self.switch_buffer),
        ):
            if buf < 1:
                raise ValueError(f"{label} must be >= 1: {buf}")
        if self.ecn_threshold is not None and not (
            0.0 < self.ecn_threshold <= 1.0
        ):
            raise ValueError(
                f"ecn_threshold outside (0,1]: {self.ecn_threshold}"
            )
        if self.rto <= 0:
            raise ValueError(f"rto must be positive: {self.rto}")

    def policy(self) -> RetransmissionPolicy:
        """The link-level retransmission schedule as a policy object."""
        return RetransmissionPolicy(
            min_rto=self.rto,
            backoff=self.rto_backoff,
            max_retries=self.max_retries,
        )


@dataclass
class NetEvent:
    """Payload of the ``net.*`` bus lifecycle topics."""

    #: "delivered" / "dropped" / "failed".
    kind: str
    link: str
    t: float
    #: End-to-end chain latency (delivered messages only).
    latency: float = 0.0
    #: Stage that discarded the message (dropped messages only).
    stage: str = ""
    #: Transmission attempts so far (1 = first try).
    attempts: int = 1
    #: The traversal crossed at least one ECN-marking stage.
    marked: bool = False


class FiniteQueue:
    """One finite FIFO stage: bounded buffer + deterministic drain.

    ``admit`` either reserves a departure time on the serialization
    horizon or rejects the message (drop-tail).  A co-located
    attacker's load appears as *background*: ``bg_fill`` slots of the
    buffer held by its descriptors (shrinking the room for foreground
    messages) and ``bg_share`` of the service rate consumed by its
    traffic (stretching foreground serialization) — mirroring how
    memory attacks degrade a victim's effective CPU speed.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate: float,
        buffer: int,
        ecn_threshold: Optional[float] = None,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        if buffer < 1:
            raise ValueError(f"buffer must be >= 1: {buffer}")
        self.sim = sim
        self.name = name
        self.rate = rate
        self.buffer = buffer
        self.service_time = 1.0 / rate
        #: Occupancy (in slots, possibly fractional) past which admitted
        #: messages are ECN-marked; None = pure drop-tail.
        self.ecn_at: Optional[float] = (
            None if ecn_threshold is None else ecn_threshold * buffer
        )
        #: Foreground messages currently in the stage.
        self.occupancy = 0
        self.peak_occupancy = 0
        #: Attacker-held buffer slots / service-rate share.
        self.bg_fill = 0.0
        self.bg_share = 0.0
        self._next_free = 0.0
        #: Conservation counters: offered == delivered + dropped +
        #: occupancy at every instant.
        self.offered = 0
        self.delivered = 0
        self.dropped = 0
        self.marked = 0

    def set_background(self, share: float, fill: float) -> None:
        """Install the aggregate co-located (attacker) load.

        ``share`` — fraction of the service rate consumed (capped at
        :data:`MAX_BACKGROUND_SHARE`); ``fill`` — fraction of the
        buffer held by background descriptors.
        """
        if share < 0 or fill < 0:
            raise ValueError(
                f"negative background on {self.name!r}: "
                f"share={share} fill={fill}"
            )
        self.bg_share = min(share, MAX_BACKGROUND_SHARE)
        self.bg_fill = min(fill, 1.0) * self.buffer

    def admit(self, now: float) -> Optional[Tuple[float, bool]]:
        """Try to admit one message at ``now``.

        Returns ``(departure_time, ecn_marked)``, or ``None`` when the
        buffer (net of background fill) is full — drop-tail.
        """
        self.offered += 1
        if self.occupancy + self.bg_fill >= self.buffer:
            self.dropped += 1
            return None
        occupancy = self.occupancy = self.occupancy + 1
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        marked = (
            self.ecn_at is not None
            and occupancy + self.bg_fill >= self.ecn_at
        )
        if marked:
            self.marked += 1
        service = self.service_time / (1.0 - self.bg_share)
        horizon = self._next_free
        if horizon < now:
            horizon = now
        self._next_free = departure = horizon + service
        return departure, marked

    def depart(self) -> None:
        """Complete the oldest admitted message's service."""
        self.occupancy -= 1
        self.delivered += 1

    @property
    def in_flight(self) -> int:
        return self.occupancy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FiniteQueue({self.name!r}, rate={self.rate:g}, "
            f"buffer={self.buffer}, occupancy={self.occupancy})"
        )


class QueueChain:
    """One directed hop: an ordered chain of finite queues.

    :meth:`transfer` is a generator driven inside the requesting
    process (the same ``yield from`` convention as
    :meth:`Tier.handle`), so a message in the chain *is* the RPC
    thread: every stage wait and every RTO backoff happens while the
    request holds its upstream tier pools.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        stages: List[FiniteQueue],
        propagation: float = 0.0,
        tcp: Optional[RetransmissionPolicy] = None,
        ecn_penalty: float = 0.0,
        bus=None,
    ):
        if not stages:
            raise ValueError("a queue chain needs at least one stage")
        self.sim = sim
        self.name = name
        self.stages = list(stages)
        self.propagation = propagation
        self.tcp = tcp if tcp is not None else RetransmissionPolicy()
        self.ecn_penalty = ecn_penalty
        #: Optional EventBus publishing ``net.delivered`` /
        #: ``net.dropped`` / ``net.failed`` lifecycle topics.
        self.bus = bus
        #: Messages entering / leaving / abandoned by the chain.
        self.messages = 0
        self.delivered = 0
        self.failed = 0
        #: Sum of per-message attempts (retransmissions included).
        self.attempts = 0

    def transfer(self, trace=None, span: Optional[str] = None) -> Generator:
        """Send one message end to end, retransmitting on loss.

        Each attempt walks the stages in order: admit, sleep until the
        reserved departure, depart.  A full stage drops the message,
        and the sender sleeps one RTO before the next attempt.

        Raises :class:`NetworkOverflowError` once the RTO schedule is
        exhausted — the client's TCP loop treats it as a request drop.
        """
        sim = self.sim
        bus = self.bus
        stages = self.stages
        self.messages += 1
        start = sim._now
        attempt = 0
        while True:
            attempt += 1
            self.attempts += 1
            sent = sim._now
            marked = False
            for stage in stages:
                now = sim._now
                admitted = stage.admit(now)
                if admitted is None:
                    break
                departure, stage_marked = admitted
                delay = departure - now
                if delay > 0:
                    yield delay
                stage.depart()
                marked = marked or stage_marked
            else:
                if self.propagation > 0:
                    yield self.propagation
                if marked and self.ecn_penalty > 0:
                    # The congestion response: one pacing delay per
                    # marked traversal, the cwnd-halving analog.
                    yield self.ecn_penalty
                delivered = sim._now
                self.delivered += 1
                if trace is not None:
                    trace.add("net", span, sent, delivered)
                if bus is not None:
                    bus.publish(
                        "net.delivered",
                        NetEvent(
                            kind="delivered",
                            link=self.name,
                            t=delivered,
                            latency=delivered - start,
                            attempts=attempt,
                        ),
                    )
                return
            # ``stage`` dropped the message; ``marked`` covers the
            # stages it already crossed on this attempt.
            if bus is not None:
                bus.publish(
                    "net.dropped",
                    NetEvent(
                        kind="dropped",
                        link=self.name,
                        t=sim._now,
                        stage=stage.name,
                        attempts=attempt,
                        marked=marked,
                    ),
                )
            schedule = self.tcp.schedule
            if attempt > len(schedule):
                self.failed += 1
                if bus is not None:
                    bus.publish(
                        "net.failed",
                        NetEvent(
                            kind="failed",
                            link=self.name,
                            t=sim._now,
                            attempts=attempt,
                        ),
                    )
                raise NetworkOverflowError(f"net:{self.name}")
            rto = schedule[attempt - 1]
            backoff_start = sim._now
            yield rto
            if trace is not None:
                trace.backoff("net_rto", span, backoff_start, sim._now, rto)

    @property
    def min_latency(self) -> float:
        """Serialization floor: one message through an idle chain.

        The sum of every stage's unloaded service time plus the
        propagation delay — the *minimum possible* end-to-end traversal
        time.  Background shares and queue horizons only add delay, so
        this is the lookahead bound the sharded kernel's conservative
        window protocol derives from queue chains (DESIGN.md §12).
        """
        return (
            sum(stage.service_time for stage in self.stages)
            + self.propagation
        )

    def fluid_delay(self) -> float:
        """Mean-field per-message traversal delay at the current load.

        The hybrid fluid engine folds this into the bulk flow's
        cross-tier rate: each stage's service time stretched by its
        current background share (exactly how :meth:`FiniteQueue.admit`
        stretches foreground serialization), plus propagation.  A
        first-order estimate — it tracks attacker microbursts through
        ``bg_share`` but ignores transient horizon backlog, which only
        the discrete sampled requests feel.  With no background this
        equals :attr:`min_latency`.
        """
        total = self.propagation
        for stage in self.stages:
            total += stage.service_time / (1.0 - stage.bg_share)
        return total

    @property
    def drops(self) -> int:
        """Total stage-level discards (retransmitted or not)."""
        return sum(stage.dropped for stage in self.stages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueueChain({self.name!r}, {len(self.stages)} stages, "
            f"{self.delivered}/{self.messages} delivered)"
        )
