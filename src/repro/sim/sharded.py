"""Sharded parallel DES: conservative safe-window synchronization.

The kernel-side half of the multi-host datacenter runner
(:mod:`repro.experiments.datacenter`): each simulated host runs its own
:class:`~repro.sim.core.Simulator` — in a dedicated worker process when
sharded, or side by side in one simulator when not — and cross-host
RPCs travel as timestamped event messages over per-link ordered
channels.

Synchronization (DESIGN.md §12, proof sketches there):

**The base grid.**  Every cross-shard link guarantees a *lookahead*
``L``: a message sent at time ``s`` delivers no earlier than ``s + L``
(serialization through idle queues plus propagation; load only adds
delay).  Let ``W = min L over every cross-shard link``.  Window ``k``
of the grid ``t_k = k * W`` covers the half-open interval
``(t_{k-1}, t_k]`` — ``run(until=h)`` executes events with timestamp
``<= h``, so an event at exactly ``t_{k-1}`` ran in the previous
window.  Every send in window ``k`` happens at ``s > t_{k-1}``, hence
delivers at ``>= s + L > t_{k-1} + W = t_k`` — strictly inside a
*future* window.  Exchanging each link's buffered frame at every grid
boundary therefore injects every remote event before the window that
must dispatch it; the adaptive protocol below only ever *coarsens*
that schedule.

**Adaptive windows.**  Instead of exchanging at every grid boundary,
every frame header carries a per-link *promise* — a strict lower bound
on the delivery time of every message in any *future* frame on that
link.  A shard's safe horizon is the minimum promise over its live
inbound links; it widens its next window to the largest integer
multiple of ``W`` below that horizon (capped at the horizon itself —
promises are strict, so running *to* the bound is safe).  Promises are
renegotiated in every header from the sender's clock, its next pending
local event (``Simulator.peek``) and its own inbound horizon, so all
shards agree on the schedule deterministically, without wall-clock
input.  Senders additionally declare ``skip`` — how many rounds they
will stay silent on a link — which thins the exchange on wide links;
termination is a final-flag handshake (a shard that reached the
duration promises ``+inf`` and marks the link closed; the peer stops
receiving on it).

Within one link, delivery timestamps are non-decreasing (the link's
serialization horizon is monotone), so per-link frames are ordered;
across links, received events are sorted by ``(delivery time, link
rank, intra-frame index)`` before injection.  Exchange is symmetric —
every shard sends on all its due outgoing links, then receives on all
its due incoming links, once per round — so the blocking reads cannot
deadlock as long as frames stay smaller than the pipe buffer.

**Wire format.**  A transport is anything with ``send(bytes)`` /
``recv() -> bytes`` (a :class:`PackedConnection` over a
multiprocessing ``Connection``, a list or queue shim in tests).  Each
frame is one :class:`FrameCodec` byte buffer — a struct-packed header
plus per-message rows with all repeated strings (page names,
demand-key shapes, tier names) interned per link, so the
``Connection`` hot path serializes one ``bytes`` object per frame
instead of pickling every RPC tuple.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from functools import partial
from math import inf
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .core import Simulator

__all__ = [
    "EventCounter",
    "FrameChannel",
    "FrameCodec",
    "LocalChannel",
    "PackedConnection",
    "ShardRunner",
    "ShardWindow",
]


class EventCounter:
    """Kernel hooks object counting dispatched events exactly.

    The sharded acceptance gate: the *sum* of per-shard counts must
    equal the single-process run's count.  ``on_events`` is batched
    (stride) but the kernel flushes the remainder on every ``run``
    return, so cumulative counts are exact whenever the simulator is
    between runs — which is exactly when the window loop reads them.
    """

    event_stride = 512

    def __init__(self) -> None:
        self.count = 0

    def on_events(self, count: int, now: float, pending: int) -> None:
        self.count += count

    def on_process(self, process: Any) -> None:
        return None


@dataclass(frozen=True)
class ShardWindow:
    """One shard's progress report, published on ``shard.window``."""

    shard: int
    host: str
    #: 1-based exchange-round index (== completed rounds).
    index: int
    #: Simulation time the shard has advanced to.
    now: float
    #: Cumulative dispatched events on this shard.
    events: int
    #: Cumulative cross-shard messages sent / received.
    sent: int
    received: int


class LocalChannel:
    """A cross-host channel inside one shared simulator.

    The unsharded reference mode: ``send`` computes the delivery
    timestamp through the link's serialization horizon and schedules
    the handler directly on the destination simulator's timed queue —
    the exact entry the sharded mode later reproduces via
    :meth:`Simulator.inject` at a window boundary.
    """

    def __init__(self, link: Any, dst_sim: Simulator):
        self.link = link
        self.dst_sim = dst_sim
        self._handler: Optional[Callable[[Any], None]] = None
        self.sent = 0

    def bind(self, handler: Callable[[Any], None]) -> None:
        self._handler = handler

    def send(self, now: float, payload: Any) -> None:
        self.sent += 1
        self.dst_sim.defer_at(
            self.link.delivery_time(now), partial(self._handler, payload)
        )


class FrameChannel:
    """A cross-host channel buffering sends into a per-window frame.

    The sharded mode: ``send`` stamps each payload with its delivery
    timestamp (same link arithmetic as :class:`LocalChannel`) and
    appends it to the current frame; the window loop drains the frame
    into the transport at each boundary.  On the receiving side the
    bound handler is invoked by the injected timer.
    """

    _EMPTY: Tuple = ()

    def __init__(self, link: Any):
        self.link = link
        self._frame: List[Tuple[float, Any]] = []
        self._handler: Optional[Callable[[Any], None]] = None
        self.sent = 0

    def bind(self, handler: Callable[[Any], None]) -> None:
        self._handler = handler

    def send(self, now: float, payload: Any) -> None:
        self.sent += 1
        self._frame.append((self.link.delivery_time(now), payload))

    def drain(self) -> Sequence[Tuple[float, Any]]:
        frame = self._frame
        if not frame:
            # Empty-exchange fast path: no list churn for null frames.
            return self._EMPTY
        self._frame = []
        return frame

    def deliver(self, payload: Any) -> None:
        self._handler(payload)


# -- packed frame transport -------------------------------------------------

#: Header: promise, clock (doubles), flags (u8), skip (u16), messages (u32).
_HEADER = struct.Struct("<ddBHI")
_STR_COUNT = struct.Struct("<H")
_CALL = struct.Struct("<BdqqdHHB")  # kind t call_id rid weight page shape n
_REPLY_HEAD = struct.Struct("<BdqB")  # kind t call_id n_tiers
_TIER_HEAD = struct.Struct("<HI")  # tier_id n_spans
_ERR = struct.Struct("<BdqH")  # kind t call_id tier_id
_RAW_HEAD = struct.Struct("<BdI")  # kind t length

FLAG_FINAL = 0x01

_KIND_RAW = 0
_KIND_CALL = 1
_KIND_REPLY = 2
_KIND_ERR = 3

#: Demand-key shapes are interned as one string (keys joined by US).
_SHAPE_SEP = "\x1f"

#: Interned-string ids are u16; past that a message falls back to raw.
_MAX_INTERN = 0xFFFF


class FrameCodec:
    """Stateful per-link frame codec: struct rows + string interning.

    One encoder instance lives on the sending end of a link, one
    decoder instance on the receiving end; both build the same
    append-only string table (page names, demand-key shapes, tier
    names) because every frame's *new strings* section is decoded in
    order before its message rows.  Message payloads are the exact
    tuples :mod:`repro.ntier.remote` exchanges — recognized
    structurally, everything else round-trips through a pickle row, so
    the codec stays payload-agnostic for tests and future frame kinds.

    Floats travel as IEEE doubles and ints as int64, so decoded
    payloads are *equal* to the originals — the byte-identity
    determinism contract does not care which wire carried the frame.
    """

    def __init__(self) -> None:
        self._ids: dict = {}
        self._strings: List[str] = []
        self.frames = 0
        self.messages = 0
        self.bytes = 0

    # -- encoding ------------------------------------------------------

    def _intern(self, text: str, fresh: List[str]) -> Optional[int]:
        ident = self._ids.get(text)
        if ident is None:
            ident = len(self._ids)
            if ident > _MAX_INTERN:
                return None
            self._ids[text] = ident
            fresh.append(text)
        return ident

    def _pack_message(
        self, time: float, payload: Any, fresh: List[str]
    ) -> bytes:
        if type(payload) is tuple:
            n = len(payload)
            if n == 5:
                call_id, rid, page, demands, weight = payload
                if (
                    type(call_id) is int
                    and type(rid) is int
                    and type(page) is str
                    and type(demands) is dict
                    and type(weight) is float
                    # A key holding the separator would split apart in
                    # the decoded shape: such a call travels raw.
                    and all(
                        type(k) is str
                        and _SHAPE_SEP not in k
                        and type(v) is float
                        for k, v in demands.items()
                    )
                ):
                    keys = list(demands.keys())
                    page_id = self._intern(page, fresh)
                    shape_id = self._intern(_SHAPE_SEP.join(keys), fresh)
                    if (
                        page_id is not None
                        and shape_id is not None
                        and len(keys) <= 0xFF
                    ):
                        return _CALL.pack(
                            _KIND_CALL,
                            time,
                            call_id,
                            rid,
                            weight,
                            page_id,
                            shape_id,
                            len(keys),
                        ) + struct.pack(
                            f"<{len(keys)}d", *demands.values()
                        )
            elif n == 3:
                call_id, ok, body = payload
                if type(call_id) is int:
                    if ok is True and type(body) is list:
                        packed = self._pack_reply(
                            time, call_id, body, fresh
                        )
                        if packed is not None:
                            return packed
                    elif ok is False and type(body) is str:
                        tier_id = self._intern(body, fresh)
                        if tier_id is not None:
                            return _ERR.pack(
                                _KIND_ERR, time, call_id, tier_id
                            )
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return _RAW_HEAD.pack(_KIND_RAW, time, len(blob)) + blob

    def _pack_reply(
        self,
        time: float,
        call_id: int,
        body: List,
        fresh: List[str],
    ) -> Optional[bytes]:
        if len(body) > 0xFF:
            return None
        parts = [_REPLY_HEAD.pack(_KIND_REPLY, time, call_id, len(body))]
        for entry in body:
            if type(entry) is not tuple or len(entry) != 2:
                return None
            tier, spans = entry
            if type(tier) is not str or type(spans) is not list:
                return None
            flat: List[float] = []
            for span in spans:
                if (
                    type(span) is not tuple
                    or len(span) != 2
                    or type(span[0]) is not float
                    or type(span[1]) is not float
                ):
                    return None
                flat.append(span[0])
                flat.append(span[1])
            tier_id = self._intern(tier, fresh)
            if tier_id is None:
                return None
            parts.append(_TIER_HEAD.pack(tier_id, len(spans)))
            if flat:
                parts.append(struct.pack(f"<{len(flat)}d", *flat))
        return b"".join(parts)

    def encode(
        self,
        promise: float,
        clock: float,
        flags: int,
        skip: int,
        frame: Sequence[Tuple[float, Any]],
    ) -> bytes:
        """Pack one frame (header + interned strings + message rows)."""
        fresh: List[str] = []
        rows = [
            self._pack_message(time, payload, fresh)
            for time, payload in frame
        ]
        strings = [_STR_COUNT.pack(len(fresh))]
        for text in fresh:
            raw = text.encode("utf-8")
            strings.append(_STR_COUNT.pack(len(raw)))
            strings.append(raw)
        buf = b"".join(
            [_HEADER.pack(promise, clock, flags, skip, len(frame))]
            + strings
            + rows
        )
        self.frames += 1
        self.messages += len(frame)
        self.bytes += len(buf)
        return buf

    # -- decoding ------------------------------------------------------

    def decode(
        self, buf: bytes
    ) -> Tuple[float, float, int, int, List[Tuple[float, Any]]]:
        """Unpack one frame; returns ``(promise, clock, flags, skip,
        [(delivery_time, payload), ...])`` with payloads equal to the
        originals.

        A malformed frame raises :class:`ValueError` naming the byte
        offset of the bad section: a truncated header, string, row or
        pickle section, an unknown row kind, an interned-string id past
        the table, or bytes after the last row.  The link is unusable
        after that (its string table may hold part of the frame).
        """
        end = len(buf)
        try:
            promise, clock, flags, skip, count = _HEADER.unpack_from(buf, 0)
            (n_fresh,) = _STR_COUNT.unpack_from(buf, _HEADER.size)
        except struct.error:
            raise _malformed("truncated header", 0) from None
        pos = _HEADER.size + _STR_COUNT.size
        strings = self._strings
        for _ in range(n_fresh):
            if pos + _STR_COUNT.size > end:
                raise _malformed("truncated string", pos)
            (length,) = _STR_COUNT.unpack_from(buf, pos)
            if pos + _STR_COUNT.size + length > end:
                raise _malformed("truncated string", pos)
            pos += _STR_COUNT.size
            strings.append(buf[pos : pos + length].decode("utf-8"))
            pos += length
        n_strings = len(strings)
        entries: List[Tuple[float, Any]] = []
        for _ in range(count):
            row = pos
            try:
                kind = buf[pos]
                if kind == _KIND_CALL:
                    (
                        _,
                        time,
                        call_id,
                        rid,
                        weight,
                        page_id,
                        shape_id,
                        n_keys,
                    ) = _CALL.unpack_from(buf, pos)
                    pos += _CALL.size
                    values = struct.unpack_from(f"<{n_keys}d", buf, pos)
                    pos += 8 * n_keys
                    if page_id >= n_strings or shape_id >= n_strings:
                        raise _malformed("string id out of range", row)
                    shape = strings[shape_id]
                    keys = shape.split(_SHAPE_SEP) if n_keys else []
                    if len(keys) != n_keys:
                        raise _malformed("demand shape mismatch", row)
                    payload: Any = (
                        call_id,
                        rid,
                        strings[page_id],
                        dict(zip(keys, values)),
                        weight,
                    )
                elif kind == _KIND_REPLY:
                    _, time, call_id, n_tiers = _REPLY_HEAD.unpack_from(
                        buf, pos
                    )
                    pos += _REPLY_HEAD.size
                    body: List[Tuple[str, List[Tuple[float, float]]]] = []
                    for _ in range(n_tiers):
                        tier_id, n_spans = _TIER_HEAD.unpack_from(buf, pos)
                        pos += _TIER_HEAD.size
                        flat = struct.unpack_from(
                            f"<{2 * n_spans}d", buf, pos
                        )
                        pos += 16 * n_spans
                        if tier_id >= n_strings:
                            raise _malformed("string id out of range", row)
                        body.append(
                            (
                                strings[tier_id],
                                [
                                    (flat[i], flat[i + 1])
                                    for i in range(0, len(flat), 2)
                                ],
                            )
                        )
                    payload = (call_id, True, body)
                elif kind == _KIND_ERR:
                    _, time, call_id, tier_id = _ERR.unpack_from(buf, pos)
                    pos += _ERR.size
                    if tier_id >= n_strings:
                        raise _malformed("string id out of range", row)
                    payload = (call_id, False, strings[tier_id])
                elif kind == _KIND_RAW:
                    _, time, length = _RAW_HEAD.unpack_from(buf, pos)
                    pos += _RAW_HEAD.size
                    if pos + length > end:
                        raise _malformed("truncated pickle section", row)
                    payload = pickle.loads(buf[pos : pos + length])
                    pos += length
                else:
                    raise _malformed(f"unknown row kind {kind}", row)
            except (struct.error, IndexError):
                raise _malformed("truncated row", row) from None
            entries.append((time, payload))
        if pos != end:
            raise _malformed(f"{end - pos} trailing bytes", pos)
        return promise, clock, flags, skip, entries


def _malformed(what: str, offset: int) -> ValueError:
    return ValueError(f"malformed frame: {what} at byte {offset}")


class PackedConnection:
    """Adapter: a multiprocessing ``Connection`` as a bytes transport.

    ``send_bytes``/``recv_bytes`` skip the pickler entirely — the
    :class:`FrameCodec` buffer goes down the pipe as one raw blob.
    """

    __slots__ = ("conn",)

    def __init__(self, conn: Any):
        self.conn = conn

    def send(self, buf: bytes) -> None:
        self.conn.send_bytes(buf)

    def recv(self) -> bytes:
        return self.conn.recv_bytes()


# -- the runner -------------------------------------------------------------

#: Upper bound on declared per-link silence, in exchange rounds.
MAX_SKIP = 4

#: Relative strictness guard on promises derived from a pending-event
#: peek: a send *at* the peeked time plus sequential stage arithmetic
#: can land a hair under ``peek + lookahead`` in floats, so the promise
#: backs off by a sliver of the base window (versus float noise of
#: ~1e-14 absolute, a 100x-plus margin at millisecond windows).
_PEEK_GUARD = 1e-9


class ShardRunner:
    """One shard's exchange loop over adaptive safe windows.

    ``outgoing`` / ``incoming`` pair each channel with its transport
    (any object with ``send(bytes)`` / ``recv() -> bytes`` — a
    :class:`PackedConnection` in production, a list or queue shim in
    tests); every link gets its own :class:`FrameCodec`.  **Ordering
    contract:** ``incoming`` must list channels in the same global
    rank order on every shard and every run — the rank is the
    cross-link tie-breaker for simultaneous deliveries.

    ``reverse`` maps each outgoing-link index to the incoming-link
    index of the same host pair (every RPC channel has a reply
    channel); the silence (``skip``) policy reads the peer's clock from
    it.
    """

    def __init__(
        self,
        sim: Simulator,
        duration: float,
        window: float,
        outgoing: Sequence[Tuple[Any, FrameChannel]],
        incoming: Sequence[Tuple[Any, Any]],
        reverse: Sequence[int],
        on_window: Optional[Callable[[int, float, int, int], None]] = None,
        window_stride: int = 1,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        self.sim = sim
        self.duration = duration
        self.window = window
        self.outgoing = list(outgoing)
        self.incoming = list(incoming)
        self.reverse = list(reverse)
        self.on_window = on_window
        self.window_stride = max(1, int(window_stride))
        self.windows = 0
        self.sent = 0
        self.received = 0
        #: Frames actually put on / taken off the wire (exchange count).
        self.frames_sent = 0
        self.frames_received = 0
        #: Per-incoming-link delivered message counts (rank order).
        self.received_per_link = [0] * len(self.incoming)
        self._encoders = [FrameCodec() for _ in self.outgoing]
        self._decoders = [FrameCodec() for _ in self.incoming]

    @property
    def bytes_sent(self) -> int:
        return sum(codec.bytes for codec in self._encoders)

    def _safe_target(self, t: float, bound: float) -> float:
        """Largest safe horizon: grid multiple of ``W`` capped at the
        inbound promise bound (promises are strict, so ``bound`` itself
        is safe) and the duration."""
        duration = self.duration
        if bound > duration:
            return duration
        width = self.window
        # Tolerance dominates the promise guard so an exactly-one-
        # window bound still yields k == 1; overshoot is harmless (the
        # cap below clamps the target back to the strict bound).
        k = int((bound - t) / width + 10.0 * _PEEK_GUARD)
        if k < 1:
            k = 1
        target = t + k * width
        if target > bound:
            target = bound
        return target

    def run(self) -> None:
        """Advance to ``duration``, exchanging frames every round."""
        sim = self.sim
        inject = sim.inject
        duration = self.duration
        width = self.window
        on_window = self.on_window
        stride = self.window_stride
        n_out = len(self.outgoing)
        n_in = len(self.incoming)
        reverse = self.reverse
        encoders = self._encoders
        decoders = self._decoders
        guard = _PEEK_GUARD * width

        promise_out = [0.0] * n_out
        next_send = [1] * n_out
        final_sent = [False] * n_out
        bound_in = [0.0] * n_in
        peer_clock = [0.0] * n_in
        next_recv = [1] * n_in
        final_in = [False] * n_in
        open_out = n_out
        open_in = n_in

        t = 0.0
        rounds = 0
        done = False
        while not done:
            bound = inf
            for j in range(n_in):
                if not final_in[j] and bound_in[j] < bound:
                    bound = bound_in[j]
            target = self._safe_target(t, bound)
            if target > t:
                sim.run(until=target)
                t = target
            rounds += 1

            # Send phase: every open link whose schedule is due.  The
            # promise uses the *pre-receive* inbound bound — events
            # injected later this round deliver strictly above it.
            for i in range(n_out):
                if final_sent[i] or next_send[i] != rounds:
                    continue
                transport, channel = self.outgoing[i]
                frame = channel.drain()
                self.sent += len(frame)
                self.frames_sent += 1
                if t >= duration:
                    # No local event below the duration can fire again
                    # (the inbound bound exceeded the duration to get
                    # here, and promises are monotone), so this link is
                    # done: promise infinity and close it.
                    final_sent[i] = True
                    open_out -= 1
                    transport.send(
                        encoders[i].encode(inf, t, FLAG_FINAL, 0, frame)
                    )
                    continue
                # Earliest time any *future* send on this link can
                # happen: the next pending local event or the first
                # delivery a not-yet-received frame could inject
                # (everything at or below the inbound bound is already
                # here).  The guard keeps the promise strict even when
                # a send fires exactly at that time — see _PEEK_GUARD.
                s_min = sim.peek()
                if bound < s_min:
                    s_min = bound
                if s_min < t:
                    s_min = t
                promise = s_min + channel.link.lookahead - guard
                if promise < promise_out[i]:
                    promise = promise_out[i]
                else:
                    promise_out[i] = promise
                # peer_clock is ~two rounds stale (sampled from last
                # round's frame, acted on next round) and the peer
                # advances up to one quantum per round, so discount two
                # quanta: a link at the base lookahead never skips
                # (skipping would stall its receiver), a double-width
                # link skips every other round.
                skip = int((promise - peer_clock[reverse[i]]) / width) - 2
                if skip < 0:
                    skip = 0
                elif skip > MAX_SKIP:
                    skip = MAX_SKIP
                next_send[i] = rounds + 1 + skip
                transport.send(encoders[i].encode(promise, t, 0, skip, frame))

            # Receive phase: every open link whose sender declared a
            # frame for this round.
            staged: List[Tuple[float, int, int, Any, Any]] = []
            for rank in range(n_in):
                if final_in[rank] or next_recv[rank] != rounds:
                    continue
                transport, channel = self.incoming[rank]
                promise, clock, flags, skip, frame = decoders[rank].decode(
                    transport.recv()
                )
                self.frames_received += 1
                if promise > bound_in[rank]:
                    bound_in[rank] = promise
                peer_clock[rank] = clock
                if flags & FLAG_FINAL:
                    final_in[rank] = True
                    open_in -= 1
                else:
                    next_recv[rank] = rounds + 1 + skip
                self.received += len(frame)
                self.received_per_link[rank] += len(frame)
                deliver = channel.deliver
                for idx, (time, payload) in enumerate(frame):
                    staged.append((time, rank, idx, deliver, payload))
            if staged:
                if len(staged) > 1:
                    staged.sort(key=_stage_key)
                # inject refuses timestamps before the shard's clock —
                # a violation of the lookahead bound aborts loudly
                # instead of silently reordering dispatch.
                for time, _, _, deliver, payload in staged:
                    inject(time, partial(deliver, payload))

            # Outgoing links close only at the duration; the clock test
            # covers shards without any.
            done = t >= duration and not (open_out or open_in)
            if on_window is not None and (rounds % stride == 0 or done):
                on_window(rounds, t, self.sent, self.received)
        self.windows = rounds


def _stage_key(entry: Tuple) -> Tuple[float, int, int]:
    return (entry[0], entry[1], entry[2])
