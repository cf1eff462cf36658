"""Remote-tier stubs: the chain's shard boundary.

When a multi-host scenario is partitioned for the sharded kernel
(:mod:`repro.sim.sharded`), the synchronous ``downstream.admit`` /
``yield from downstream.serve`` coupling cannot cross a shard boundary
— the downstream tier lives in a different :class:`~repro.sim.core.
Simulator` (possibly a different process).  The boundary is replaced by
an RPC pair:

* :class:`RemoteTierStub` stands in for the downstream tier on the
  *upstream* shard.  It is chain-compatible with
  :class:`~repro.ntier.tier.Tier` (``admit``/``serve`` pair, ``name``,
  counter properties), so upstream tiers and
  :class:`~repro.ntier.replicated.ReplicatedTier` dispatch to it
  unchanged.  ``admit`` always admits: it marshals the request into a
  compact frame and sends it down the shard channel; ``serve`` parks
  the calling process on the reply event — the upstream thread stays
  held for the whole remote call, preserving the paper's cross-tier
  thread-pinning amplification across host boundaries.
* :class:`RemoteTierServer` lives on the *downstream* shard.  Each
  incoming call frame is unmarshalled into a **shadow**
  :class:`~repro.ntier.request.Request` and served through the real
  tier chain in its own process; the shadow's accumulated tier spans
  (or the overflow's drop tier) travel back in the reply frame, and the
  stub merges them into the original request.

Both ends exchange only plain tuples of scalars, so frames pack
cheaply across worker processes — and the *same* marshalling runs in
the unsharded single-simulator mode, which is what makes a sharded run
byte-identical to its unsharded reference.

**Wire contract.**  The frame codec
(:class:`~repro.sim.sharded.FrameCodec`) recognizes exactly the two
payload shapes this module emits and struct-packs them instead of
pickling:

* *call*: ``(call_id, rid, page, demands, weight)`` — ``call_id`` and
  ``rid`` ints, ``page`` a str (interned per link, so a repeated RPC
  shape costs 2 bytes after its first frame), ``demands`` a
  ``{tier: float}`` dict whose key tuple is interned the same way (a
  key containing ``"\\x1f"``, the interning separator, sends the call
  as a pickle row instead), and ``weight`` a float.
* *reply*: ``(call_id, True, [(tier, [(start, end), ...]), ...])`` on
  success, ``(call_id, False, tier)`` on a remote overflow.

Every float crosses as a raw IEEE-754 double (``struct`` ``"d"``), so
decoded payloads equal the originals bit for bit and a sharded run
stays byte-identical to the unsharded one.  Any *other* payload shape
transparently falls back to a length-prefixed pickle row — extending
the RPC surface never breaks the transport, it just forgoes the fast
path until the codec learns the new shape.  When changing the tuples
above, update the codec's structural sniffing (and its wire-format
table in DESIGN.md §12) in the same commit.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Tuple

from ..sim.core import Event, Simulator
from .request import Request
from .tier import TierOverflowError

__all__ = [
    "RemoteTierServer",
    "RemoteTierStub",
    "marshal_request",
    "unmarshal_request",
]


def marshal_request(
    request: Request,
) -> Tuple[int, str, Dict[str, float], float]:
    """Flatten ``request`` into the tuple a call frame carries.

    The frame is ``(rid, page, demands, weight)``: only what the remote
    chain needs to serve it (identity, page, the per-tier demand samples
    and the population weight).  Client-side
    bookkeeping (attempt times, drop tiers, trace) stays on the
    originating shard.
    """
    return (
        request.rid,
        request.page,
        dict(request.demands),
        request.weight,
    )


def unmarshal_request(
    frame: Tuple[int, str, Dict[str, float], float], now: float
) -> Request:
    """Rebuild a shadow request from a call frame at arrival time."""
    rid, page, demands, weight = frame
    return Request(
        rid=rid,
        page=page,
        demands=demands,
        t_first_attempt=now,
        weight=weight,
    )


class RemoteTierStub:
    """Chain-compatible stand-in for a tier on another shard.

    ``channel`` is the outbound call channel (a ``send(now, payload)``
    object from :mod:`repro.sim.sharded`); replies arrive through
    :meth:`deliver`, bound as the reverse channel's handler by the
    scenario builder.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        channel: Any,
        concurrency: int = 0,
    ):
        self.sim = sim
        self.name = name
        self.channel = channel
        self.downstream = None  # chain-compat: the chain ends here locally
        self.arrivals = 0
        self.completions = 0
        self.drops = 0
        self._concurrency = concurrency
        self._next_call = 0
        self._pending: Dict[int, Event] = {}

    # -- chain-compatible surface --------------------------------------

    @property
    def concurrency(self) -> int:
        """Advertised remote concurrency (static; informational)."""
        return self._concurrency

    @property
    def occupancy(self) -> int:
        """Calls currently outstanding across the boundary."""
        return len(self._pending)

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    # -- the RPC -------------------------------------------------------

    def admit(self, request: Request) -> Event:
        """Issue one remote call; always admits.

        Admission control lives on the remote shard, so the stub only
        sends the call frame and returns the reply event as the token
        :meth:`serve` parks on.
        """
        self.arrivals += 1
        call_id = self._next_call
        self._next_call += 1
        reply = Event(self.sim)
        self._pending[call_id] = reply
        self.channel.send(
            self.sim._now, (call_id,) + marshal_request(request)
        )
        return reply

    def handle(self, request: Request) -> Generator:
        """:meth:`admit` + :meth:`serve`: one complete remote call."""
        yield from self.serve(request, self.admit(request))

    def serve(self, request: Request, reply: Event) -> Generator:
        """Park until the call's reply delivers.

        On success the reply's spans are merged into the request
        through :meth:`Request.record_span`, tier by tier in reply
        order; on a remote overflow the drop is
        re-raised as :class:`TierOverflowError` carrying the *remote*
        tier name, so the client's retransmission loop attributes the
        drop exactly as it would in a single-simulator run.
        """
        ok, body = yield reply
        if not ok:
            self.drops += 1
            raise TierOverflowError(body)
        record_span = request.record_span
        for tier_name, spans in body:
            for enter, leave in spans:
                record_span(tier_name, enter, leave)
        self.completions += 1

    def deliver(self, frame: Tuple) -> None:
        """Reply-channel handler: wake the call's parked process."""
        call_id, ok, body = frame
        self._pending.pop(call_id).succeed((ok, body))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteTierStub({self.name!r}, "
            f"in_flight={len(self._pending)})"
        )


class RemoteTierServer:
    """Serves call frames against the shard's local tier chain.

    ``tier`` is the first local tier (the chain recurses below it);
    ``channel`` is the outbound reply channel.  ``sketch``, when given,
    observes every successful call's service time — the per-shard
    latency histogram merged across shards after the run.
    """

    def __init__(
        self,
        sim: Simulator,
        tier: Any,
        channel: Any,
        sketch: Any = None,
    ):
        self.sim = sim
        self.tier = tier
        self.channel = channel
        self.sketch = sketch
        self.calls = 0
        self.replies = 0

    def dispatch(self, frame: Tuple) -> None:
        """Call-channel handler: serve the frame in a fresh process."""
        self.calls += 1
        self.sim.process(self._serve(frame))

    def _serve(self, frame: Tuple) -> Generator:
        call_id = frame[0]
        start = self.sim._now
        shadow = unmarshal_request(frame[1:], start)
        tier = self.tier
        token = tier.admit(shadow)
        if token is None:
            drop_tier = tier.name
        else:
            try:
                yield from tier.serve(shadow, token)
                drop_tier = None
            except TierOverflowError as overflow:
                # Dropped further down this shard's chain.
                drop_tier = overflow.tier
        if drop_tier is not None:
            self.replies += 1
            self.channel.send(self.sim._now, (call_id, False, drop_tier))
            return
        if self.sketch is not None:
            self.sketch.observe(self.sim._now - start)
        self.replies += 1
        self.channel.send(
            self.sim._now, (call_id, True, shadow.span_groups())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteTierServer({self.tier.name!r}, "
            f"calls={self.calls})"
        )
