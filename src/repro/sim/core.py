"""Discrete-event simulation kernel.

This module provides the event loop that every other subsystem of the
reproduction is built on: a :class:`Simulator` with a time-ordered event
queue, one-shot :class:`Event` objects, and generator-based
:class:`Process` coroutines in the style of SimPy (but self-contained,
so the reproduction has no runtime dependency beyond numpy).  A process
waits by yielding an event, or sleeps by yielding its delay in seconds.

Typical usage::

    sim = Simulator()

    def worker(sim):
        yield 1.0
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "done"

All simulated time is in seconds (floats).

Hot-path notes
--------------

The kernel is the inner loop of every experiment (a 60 s run of 10k
users dispatches ~1M events), so the dispatch path trades a little
repetition for speed; the invariants it preserves are spelled out in
DESIGN.md ("Kernel invariants") and enforced byte-for-byte by
``tests/test_determinism.py``:

* **Two-level event queue.**  The schedule is split by priority class.
  *Urgent* events (``succeed()``/``fail()``/interrupts — everything
  triggered "right now") are only ever scheduled at the current
  instant, so a plain FIFO deque (``_imm``) realises their total order
  exactly: same-timestamp batches are delivered through slot
  ``popleft`` instead of per-event heap traffic.  *Timed* events go
  into a bucketed calendar wheel — ``wheel_buckets`` buckets of
  ``bucket_width`` seconds — holding ``(time, seq, obj)`` entries,
  with a spill heap for entries beyond the current window.  Buckets are
  append-only until the consume cursor reaches them, then sorted once;
  the common pop is an index bump, not a heap sift.  The dispatch order
  is provably identical to the old single heap's
  ``(time, priority, seq)`` order — see DESIGN.md §6 for the proof
  sketch and the window-rotation rules.
* **FIFO tie-breaking.**  ``seq`` is a monotone counter over timed
  entries; urgent order is deque order.  Events scheduled at the same
  instant and priority dispatch in scheduling order, deterministically.
* **Entry reuse for bare callbacks.**  Dispatch treats any queue entry
  whose ``callbacks`` attribute is ``None`` as a *bare timer* and calls
  ``entry.fire()`` directly — no callbacks list, no value, no failure
  bookkeeping.  :meth:`Simulator.defer_at` wraps a plain callable in a
  1-slot :class:`_Deferred`; the processor-sharing server schedules its
  own timer objects this way and lazily discards superseded ones via a
  generation check rather than paying O(n) queue deletion.  A process
  sleep is such an entry too: the process's one reusable *wake*
  (a :class:`_Deferred` whose ``fire`` is the process's cached resume
  callback), pushed at ``now + delay`` with the same single ``seq`` a
  waitable timer event would take — no Event is allocated per sleep.
* **Inlined dispatch.**  :meth:`Simulator.run` has two dispatch loops
  with locals bound outside the loop: ``_drain`` (``run()`` and
  ``run(until=event)``) and the horizon loop (``run(until=t)``).  They
  differ only in the horizon check and must otherwise stay
  semantically identical; a scenario run straight through and the
  same scenario stepped in ``run(until=t)`` windows must agree
  (``tests/test_net_queues.py::TestShardBoundaryProperties``).
* **In-place continuations.**  A sleep whose wake would be the very
  next dispatch (:meth:`Simulator.elapse`), or a sole urgent event a
  process is about to wait on (:meth:`Simulator.consume`), is taken
  without a trip through the loop: the clock, ``seq`` and the hook
  count move exactly as the push and dispatch would have moved them,
  so every event count still counts logical dispatches.  The loops
  publish the two facts this needs: the running horizon and whether
  they are partway through an event with several waiters.
* **Batched cyclic GC.**  Event dispatch allocates heavily (events,
  queue entries, generator frames) and CPython's default generation-0
  cadence (every ~700 allocations) costs ~15% of kernel wall time at
  population scale.  :meth:`Simulator.run` therefore disables the
  cyclic collector for the duration of the loop and runs one
  generation-1 collection every ``_GC_EVENT_BATCH`` dispatched events,
  counted across :meth:`Simulator.run` calls (a sharded run is
  hundreds of short ``run(until=…)`` windows).
  Generation 1 (not a full sweep) matters at scale: survivors are
  promoted to generation 2 and never re-scanned, so each periodic
  collection only walks objects allocated since the previous one — a
  traced run retains ~1M span rows, and full sweeps would re-walk all
  of them every batch.  Young cycles (aborted generator frames,
  exception tracebacks) are still reclaimed, which bounds garbage
  accumulation.  Finished processes are not cycles — ``_resume`` drops
  the cached bound method and retires the wake holding it on exit —
  so they die by reference counting even where the collector never
  runs.  Around the loop, every experiment entry point builds and runs
  its world inside a :class:`WorldCollector`: one full collection on
  entry only while a :class:`Simulator` built earlier in the process
  is still alive (a dropped world is cyclic garbage that only a full
  sweep reclaims), the collector off through the build (a fresh world
  is all live objects, so collecting it reclaims nothing), the built
  world frozen without a collection and run, and the collector's
  state restored on exit, raise or not.  The forked shard worker is
  the exception: it keeps the collector off for its whole life, so no
  collection runs in it at all (:meth:`Simulator.run` and
  :class:`WorldCollector` both leave a disabled collector alone).
  Pure memory management: simulation results are identical either
  way.
"""

from __future__ import annotations

import gc as _gc
import weakref as _weakref
from bisect import insort
from collections import deque
from heapq import heappop, heappush
from numbers import Real as _Real
from typing import Any, Callable, Generator, List, Optional

__all__ = [
    "Event",
    "Process",
    "Interrupt",
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "WorldCollector",
]

#: Sentinel for "this event has not been triggered yet".
_PENDING = object()

_INF = float("inf")
_NAN = float("nan")

#: Dispatched events between generation-1 cyclic-GC collections inside
#: :meth:`Simulator.run` (see "Batched cyclic GC" in the module
#: docstring).  ~500k events is a few seconds of 10k-user simulation;
#: measured on the flagship traced run, peak RSS is unchanged versus a
#: 4x smaller batch (young cycles die to refcounting long before the
#: collector sees them) while each skipped collection saves ~90 ms.
_GC_EVENT_BATCH = 500_000

#: Every :class:`Simulator` still alive, held weakly: a
#: :class:`WorldCollector` sweeps the heap on entry only while this is
#: non-empty.
_worlds = _weakref.WeakSet()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` at a target event."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupting party may attach an arbitrary ``cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, after which its callbacks run at the
    current simulation time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables ``cb(event)`` invoked when the event is processed.
        #: Set to ``None`` once processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event already has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def ok(self) -> Optional[bool]:
        """True on success, False on failure, None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._imm.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes get the exception thrown into them.  If nobody
        ever waits on a failed event the simulator re-raises it, unless
        :meth:`defuse` was called.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._imm.append(self)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the simulator does not re-raise."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class _Deferred:
    """A bare scheduled callback: one queue entry, no Event machinery.

    Any queue entry whose ``callbacks`` attribute is ``None`` is
    dispatched as ``entry.fire()`` — no callbacks list is allocated, no
    value/failure bookkeeping happens.  ``_Deferred`` stores the
    callable directly in its ``fire`` slot; a process's sleep *wake*
    is one holding its resume callback.  Other subsystems (the
    processor-sharing server) provide their own objects implementing
    the same ``callbacks = None`` / ``fire()`` protocol.
    """

    __slots__ = ("fire",)

    #: Marks this entry as a bare timer for the dispatch loop.
    callbacks = None

    def __init__(self, fn: Callable[[], None]):
        self.fire = fn


class _Initialize(Event):
    """Internal event used to start a process on the next step."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        self.sim = sim
        self.callbacks = [process._presume]
        self._value = None
        self._ok = True
        self._defused = False
        sim._imm.append(self)


def _retired() -> None:
    """The ``fire`` of a retired wake: its process was interrupted
    mid-sleep or has finished, so the queued entry wakes no one."""


def _as_delay(value: Any) -> float:
    """``value`` as a sleep delay in seconds, or NaN if it is not one.

    The slow path of a sleep: an ``int`` or a numpy real is a delay, a
    ``bool`` is not.
    """
    if isinstance(value, _Real) and value.__class__ is not bool:
        return float(value)
    return _NAN


class Process(Event):
    """A generator-based coroutine driven by the simulator.

    The generator yields :class:`Event` instances, and the process
    resumes when the yielded event triggers; or it yields a delay in
    seconds (``yield 0.5``) and resumes that much later with ``None``.
    A process is itself an event that triggers with the generator's
    return value, so processes can wait on each other (this is how
    synchronous RPC between tiers is modelled).

    A sleep allocates no event.  The process owns one *wake*, a bare
    timer whose ``fire`` is the cached resume callback, created on the
    first sleep and pushed into the timed queue again on every later
    one; the queue entry carries the wake time.
    """

    __slots__ = ("_generator", "_target", "_presume", "_wake")

    def __init__(self, sim: "Simulator", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process() requires a generator, got {generator!r}"
            )
        super().__init__(sim)
        self._generator = generator
        # The bound resume callback is cached once: every event wait
        # registers it, and binding a method per wait is measurable at
        # kernel scale.
        self._presume = self._resume
        #: The reusable sleep timer; built lazily, so a process that
        #: never sleeps (a per-request RPC server) pays nothing.
        self._wake: Optional[_Deferred] = None
        self._target: Any = _Initialize(sim, self)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The interrupt is delivered immediately (at the current simulation
        time).  Interrupting a dead process is an error.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        # Detach from whatever the process is waiting on so the stale
        # resume callback never fires.
        target = self._target
        if target is not None:
            if target is self._wake:
                # Sleeping: the queued wake still fires, as a no-op —
                # the one dispatched event a timer event would cost.
                # The next sleep gets a fresh wake.
                target.fire = _retired
                self._wake = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._presume)
                except ValueError:
                    pass
        self._target = None
        failure = Event(self.sim)
        failure.callbacks.append(self._presume)
        failure._ok = False
        failure._value = Interrupt(cause)
        failure._defused = True
        self.sim._imm.append(failure)

    def _release(self) -> None:
        """Drop the finished process's references to itself.

        The cached bound method and the wake's ``fire`` both hold the
        process; dropping them keeps a finished process out of any
        cycle, so it dies by reference counting, not by the cyclic
        collector — even while its last wake entry still sits in a
        consumed wheel bucket.
        """
        self._presume = None
        wake = self._wake
        if wake is not None:
            wake.fire = _retired
            self._wake = None

    def _resume(self, event: Optional[Event] = None) -> None:
        """Advance the generator with the outcome of ``event``.

        A wake calls it with no event: the sleep is over, send ``None``.
        """
        if self._value is not _PENDING:
            # Stale wakeup: the process already terminated.  Reachable
            # when a resume callback could not be detached — e.g. the
            # target event was mid-dispatch (callbacks already captured)
            # when interrupt() ran, or the process was interrupted twice
            # before the first failure was delivered — and the process
            # then finished on the earlier wakeup.  Resuming would throw
            # into a closed generator; there is nothing left to advance.
            return
        generator = self._generator
        presume = self._presume
        while True:
            try:
                if event is None or event._ok:
                    value = None if event is None else event._value
                    target = generator.send(value)
                else:
                    event._defused = True
                    target = generator.throw(event._value)
            except StopIteration as stop:
                self._release()
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._release()
                # The traceback's head is this frame, whose locals hold
                # ``self``; the process keeps ``exc`` as its value, so
                # unlink the frame to keep the pair acyclic.
                exc.__traceback__ = exc.__traceback__.tb_next
                self.fail(exc)
                return

            if target.__class__ is float:
                # Fast path: a sleep, the most common yield.
                delay = target
            else:
                # Yielded events are overwhelmingly pending or freshly
                # triggered — both register the resume callback and
                # park the process.
                try:
                    callbacks = target.callbacks
                except AttributeError:
                    callbacks = None
                if callbacks is not None:
                    callbacks.append(presume)
                    self._target = target
                    return
                if isinstance(target, Event):
                    # Already triggered and processed: resume
                    # synchronously.
                    event = target
                    continue
                delay = _as_delay(target)
            if 0.0 <= delay < _INF:
                wake = self._wake
                if wake is None:
                    wake = self._wake = _Deferred(presume)
                self._target = wake
                sim = self.sim
                sim._push_timed(sim._now + delay, wake)
                return

            # Throw the error into the generator like a failed event:
            # it may catch it and return, yield again or re-raise, and
            # each outcome takes the normal step above.
            event = Event(self.sim)
            event._ok = False
            event._value = SimulationError(
                "process yielded neither an event nor a finite delay "
                f">= 0: {target!r}"
            )


class Simulator:
    """The discrete-event simulation core: clock plus two-level queue.

    Urgent (same-instant) events live in the ``_imm`` FIFO deque; timed
    events live in a calendar wheel of ``wheel_buckets`` buckets, each
    ``bucket_width`` seconds wide, with a ``_spill`` heap for entries
    beyond the current window (``wheel_buckets * bucket_width`` seconds
    long).  The defaults are tuned for the n-tier workload (sub-ms
    service quanta and network delays, multi-second think times); both
    knobs only affect speed, never results.

    A single optional *hooks* object (see :meth:`attach_hooks`) lets an
    observer — e.g. :class:`repro.obs.bus.KernelProfiler` — watch every
    event dispatch and process spawn.  With no hooks attached the cost
    is one ``None`` check per event.
    """

    # Slotted: the dispatch loop touches ~10 of these per event, and an
    # offset load beats an instance-dict lookup at that frequency.
    __slots__ = (
        "_now",
        "_seq",
        "_imm",
        "_width",
        "_inv_width",
        "_nbuckets",
        "_nlast",
        "_span",
        "_buckets",
        "_window_start",
        "_window_end",
        "_active_idx",
        "_active_pos",
        "_timed_count",
        "_spill",
        "_hooks",
        "_hook_stride",
        "_hook_countdown",
        "_gc_budget",
        "_horizon",
        "_fanout",
        "__weakref__",
    )

    def __init__(
        self, bucket_width: float = 1e-3, wheel_buckets: int = 8192
    ):
        if not bucket_width > 0.0:
            raise SimulationError(
                f"bucket_width must be > 0: {bucket_width!r}"
            )
        if wheel_buckets < 1:
            raise SimulationError(
                f"wheel_buckets must be >= 1: {wheel_buckets!r}"
            )
        self._now = 0.0
        self._seq = 0
        #: Urgent events, dispatched FIFO before any timed entry.
        self._imm: deque = deque()
        # Calendar wheel state.  Entries are (time, seq, obj) tuples;
        # see DESIGN.md §6 for the cursor/sortedness invariants.
        self._width = float(bucket_width)
        self._inv_width = 1.0 / self._width
        self._nbuckets = int(wheel_buckets)
        self._nlast = self._nbuckets - 1
        self._span = self._width * self._nbuckets
        self._buckets: List[List[tuple]] = [
            [] for _ in range(self._nbuckets)
        ]
        self._window_start = 0.0
        self._window_end = self._span
        self._active_idx = 0
        self._active_pos = 0
        self._timed_count = 0
        #: Far-future timed entries, beyond the current wheel window.
        self._spill: List[tuple] = []
        self._hooks: Optional[Any] = None
        self._hook_stride = 1
        self._hook_countdown = 1
        #: Events left before the next batched collection; persists
        #: across run() calls so short safe windows keep the cadence.
        self._gc_budget = _GC_EVENT_BATCH
        #: The running loop's horizon (``inf`` for a drain, ``-inf``
        #: outside :meth:`run`) and whether it is partway through an
        #: event with several waiters: the two facts an in-place
        #: continuation (:meth:`elapse`, :meth:`consume`) needs from
        #: the dispatcher.
        self._horizon = -_INF
        self._fanout = False
        _worlds.add(self)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-undispatched events (all queues)."""
        return self._timed_count + len(self._spill) + len(self._imm)

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        proc = Process(self, generator)
        if self._hooks is not None:
            self._hooks.on_process(proc)
        return proc

    # -- observability hooks ---------------------------------------------

    @property
    def hooks(self) -> Optional[Any]:
        """The attached kernel hooks object, if any."""
        return self._hooks

    def attach_hooks(self, hooks: Any) -> None:
        """Attach a kernel observer.

        ``hooks`` must provide ``on_events(count, now, pending)`` and
        ``on_process(process)``; an optional ``on_attach(sim)`` runs
        immediately.  ``on_events`` is *batched*: the dispatch loop
        calls it once every ``hooks.event_stride`` dispatched events
        (default 1) with the exact number of events since the previous
        call, plus once more with the remainder when :meth:`run`
        returns — so cumulative event counts are exact while the
        per-event cost stays a couple of integer operations.  Hooks
        observe only — they must not mutate the schedule — so attaching
        them never changes simulation results.
        """
        if self._hooks is not None:
            raise SimulationError("hooks are already attached")
        on_events = getattr(hooks, "on_events", None)
        if on_events is None:
            raise SimulationError(
                "hooks object must provide on_events(count, now, pending)"
            )
        stride = int(getattr(hooks, "event_stride", 1) or 1)
        if stride < 1:
            raise SimulationError(f"event_stride must be >= 1: {stride}")
        self._hooks = hooks
        self._hook_stride = stride
        self._hook_countdown = stride
        on_attach = getattr(hooks, "on_attach", None)
        if on_attach is not None:
            on_attach(self)

    def _flush_hook_events(self) -> None:
        """Report any not-yet-reported events to the hooks object."""
        hooks = self._hooks
        if hooks is None:
            return
        pending = self._hook_stride - self._hook_countdown
        if pending:
            self._hook_countdown = self._hook_stride
            hooks.on_events(pending, self._now, self.pending_events)

    def call_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute simulation time ``time``.

        Returns the scheduling :class:`Event` (waitable).  For fire-and-
        forget timers on the hot path prefer :meth:`defer_at`.
        """
        if time < self._now:
            raise SimulationError(
                f"call_at({time}) is in the past (now={self._now})"
            )
        ev = Event(self)
        ev._ok = True
        ev._value = None
        ev.callbacks.append(lambda _ev: fn())
        self._push_timed(time, ev)
        return ev

    def call_in(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` seconds."""
        return self.call_at(self._now + delay, fn)

    def defer_at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule bare ``fn()`` at absolute time ``time`` (not waitable).

        The cheap sibling of :meth:`call_at`: one queue entry, no Event.
        Scheduling order relative to every other entry is identical to
        ``call_at`` (same priority, same sequence counter).
        """
        if time < self._now:
            raise SimulationError(
                f"defer_at({time}) is in the past (now={self._now})"
            )
        self._push_timed(time, _Deferred(fn))

    def defer_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule bare ``fn()`` after ``delay`` seconds (not waitable)."""
        self.defer_at(self._now + delay, fn)

    def inject(self, time: float, fn: Callable[[], None]) -> None:
        """Inject an externally sourced event at absolute ``time``.

        The entry point the sharded kernel uses between safe windows:
        a message received from another shard becomes a bare timer at
        its pre-computed delivery timestamp.  ``time`` must not be in
        the past — the conservative window protocol *guarantees* every
        cross-shard delivery lands strictly inside a future window, so
        a violation here means the lookahead bound was broken and the
        run must abort loudly rather than silently reorder
        (:class:`SimulationError` via :meth:`defer_at`).

        Injected entries share the normal timed queue and sequence
        counter, so dispatch order against local events at the same
        timestamp is exactly what a single shared simulator would have
        produced had the sender scheduled the delivery directly.
        """
        self.defer_at(time, fn)

    # -- scheduling / main loop ----------------------------------------

    def _push_timed(self, time: float, obj: Any) -> None:
        """Enqueue ``obj`` at absolute ``time`` in the timed queue.

        ``obj`` is an :class:`Event` or a bare-timer object
        (``callbacks is None`` + ``fire()``).  ``time`` must be
        ``>= self._now`` and finite; callers check the former, the
        spill branch rejects the latter.
        """
        self._seq = seq = self._seq + 1
        if time < self._window_end:
            idx = int((time - self._window_start) * self._inv_width)
            nlast = self._nlast
            if idx > nlast:
                # Float round-up at the window edge: the last bucket
                # owns [window_end - width, window_end).
                idx = nlast
            active = self._active_idx
            bucket = self._buckets[idx]
            if idx > active:
                # Future bucket: append unsorted; sorted on activation.
                bucket.append((time, seq, obj))
            elif idx == active:
                # Active bucket: keep [pos:] sorted.  The new entry
                # orders >= every consumed entry (time >= now and seq
                # is fresh), so inserting at >= pos is always correct.
                insort(bucket, (time, seq, obj), self._active_pos)
            else:
                # Demotion: the cursor skipped this (empty) bucket when
                # scanning forward, or halted past it at a run(horizon)
                # boundary.  Only reachable while the current active
                # bucket has no live-and-consumed mix: either pos == 0
                # (nothing consumed) or pos == len (fully consumed
                # leftover, safe to drop).
                abucket = self._buckets[active]
                if self._active_pos >= len(abucket):
                    abucket.clear()
                bucket.append((time, seq, obj))
                bucket.sort()
                self._active_idx = idx
                self._active_pos = 0
            self._timed_count += 1
        else:
            if time == _INF or time != time:
                raise SimulationError(
                    f"cannot schedule at non-finite time: {time!r}"
                )
            heappush(self._spill, (time, seq, obj))

    def _normalize_wheel(self) -> None:
        """Advance the cursor to the next non-empty bucket and sort it.

        Precondition: ``_timed_count > 0`` and the active bucket is
        exhausted (``_active_pos >= len(bucket)``).  All live entries
        sit in buckets after the active one, so the forward scan always
        terminates inside the wheel.
        """
        buckets = self._buckets
        idx = self._active_idx
        bucket = buckets[idx]
        if bucket:
            bucket.clear()
        idx += 1
        while not buckets[idx]:
            idx += 1
        buckets[idx].sort()
        self._active_idx = idx
        self._active_pos = 0

    def _rotate_to_spill(self) -> None:
        """Move the window forward to the spill head and refill the wheel.

        Precondition: the wheel is empty (``_timed_count == 0``) and
        ``_spill`` is not.  Rotation is only ever performed on a pop
        path immediately followed by consuming the new head — never on
        a peek — so no insert can observe a window that starts after
        ``now``'s bucket.
        """
        bucket = self._buckets[self._active_idx]
        if bucket:
            bucket.clear()
        spill = self._spill
        t0 = spill[0][0]
        span = self._span
        # Align the window to a span multiple containing t0, guarding
        # both float round-down (ws > t0) and round-up (t0 >= we).
        ws = int(t0 / span) * span
        if ws > t0:
            ws -= span
        we = ws + span
        if t0 >= we:
            ws = we
            we = ws + span
        self._window_start = ws
        self._window_end = we
        buckets = self._buckets
        inv = self._inv_width
        nlast = self._nlast
        min_idx = nlast
        count = 0
        pop = heappop
        while spill and spill[0][0] < we:
            entry = pop(spill)
            idx = int((entry[0] - ws) * inv)
            if idx > nlast:
                idx = nlast
            buckets[idx].append(entry)
            if idx < min_idx:
                min_idx = idx
            count += 1
        self._timed_count = count
        # Entries drain from the spill heap in (time, seq) order, so
        # every refilled bucket is already sorted; sorting the first
        # one keeps the active-bucket invariant explicit and is O(n).
        buckets[min_idx].sort()
        self._active_idx = min_idx
        self._active_pos = 0

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none.

        Urgent events are always due at the current time.  Peeking may
        normalize the wheel cursor (sorting the next bucket) but never
        rotates the window — rotation is reserved for pop paths.
        """
        if self._imm:
            return self._now
        if self._timed_count:
            bucket = self._buckets[self._active_idx]
            if self._active_pos >= len(bucket):
                self._normalize_wheel()
                bucket = self._buckets[self._active_idx]
            return bucket[self._active_pos][0]
        if self._spill:
            return self._spill[0][0]
        return _INF

    # -- in-place continuations ------------------------------------------

    def elapse(self, delay: float) -> bool:
        """Sleep ``delay`` seconds in place if that wake is the next
        dispatch; return whether it was.

        For a process that would otherwise ``yield delay``::

            if not sim.elapse(delay):
                yield delay

        The wake would be the next dispatch when nothing urgent is
        waiting, the dispatcher is not partway through an event with
        several waiters, ``now + delay`` is within the running loop's
        horizon and the wheel window, and it is strictly before the
        next timed entry (an entry already queued at that instant has
        the smaller ``seq``, so it would dispatch first).  Then the
        clock moves to ``now + delay`` and the sleep's ``seq`` and its
        dispatch are counted exactly as the push and the dispatch would
        have counted them, and the caller goes on without a trip
        through the event loop.  Otherwise nothing changes and the
        caller yields.  A negative, NaN or infinite delay is never
        taken in place, so the yield reports it.
        """
        now = self._now
        t = now + delay
        if (
            self._imm
            or self._fanout
            or not now <= t < self._window_end
            or t > self._horizon
        ):
            return False
        if self._timed_count:
            bucket = self._buckets[self._active_idx]
            pos = self._active_pos
            if pos < len(bucket):
                if t >= bucket[pos][0]:
                    return False
            elif t >= self.peek():
                return False
        self._seq += 1
        self._now = t
        hooks = self._hooks
        if hooks is not None:
            countdown = self._hook_countdown - 1
            if countdown:
                self._hook_countdown = countdown
            else:
                self._hook_countdown = self._hook_stride
                hooks.on_events(self._hook_stride, t, self.pending_events)
        return True

    def consume(self, event: Event) -> bool:
        """Take a triggered ``event`` in place if its dispatch is the
        next one; return whether it was.

        For a process that would otherwise ``yield event``::

            if not sim.consume(event):
                yield event

        It is the next dispatch, with the process as its only waiter,
        when the event succeeded, is the only urgent entry, has no
        callbacks yet, and the dispatcher is not partway through an
        event with several waiters.  Then it is dequeued and marked
        processed, its dispatch is counted as the dispatcher counts
        one, and the caller reads ``event.value`` if it needs it.
        Otherwise nothing changes and the caller yields.
        """
        imm = self._imm
        if (
            len(imm) != 1
            or imm[0] is not event
            or self._fanout
            or event.callbacks
            or not event._ok
        ):
            return False
        imm.pop()
        event.callbacks = None
        hooks = self._hooks
        if hooks is not None:
            countdown = self._hook_countdown - 1
            if countdown:
                self._hook_countdown = countdown
            else:
                self._hook_countdown = self._hook_stride
                hooks.on_events(
                    self._hook_stride, self._now, self.pending_events
                )
        return True

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the schedule drains), a
        number (run until that simulation time), or an :class:`Event`
        (run until it triggers, returning its value).
        """
        manage_gc = _gc.isenabled()
        if manage_gc:
            _gc.disable()
        try:
            return self._run(until)
        finally:
            self._horizon = -_INF
            self._fanout = False
            self._flush_hook_events()
            if manage_gc:
                _gc.enable()

    def _drain(self) -> None:
        """Dispatch events until the schedule is empty.

        Shared by ``run()`` and ``run(until=Event)`` — the latter stops
        early via :class:`StopSimulation` raised from a callback.
        """
        imm = self._imm
        imm_pop = imm.popleft
        buckets = self._buckets
        budget = self._gc_budget
        # Loop-hoisted: hooks (if any) are attached before run() — the
        # attach API is not meant to be called from callbacks.
        hooks = self._hooks
        self._horizon = _INF
        try:
            while True:
                if imm:
                    event = imm_pop()
                else:
                    pos = self._active_pos
                    bucket = buckets[self._active_idx]
                    if pos < len(bucket):
                        entry = bucket[pos]
                        self._active_pos = pos + 1
                        self._timed_count -= 1
                    elif self._timed_count:
                        self._normalize_wheel()
                        continue
                    elif self._spill:
                        self._rotate_to_spill()
                        continue
                    else:
                        return
                    self._now = entry[0]
                    event = entry[2]
                if hooks is not None:
                    countdown = self._hook_countdown - 1
                    if countdown:
                        self._hook_countdown = countdown
                    else:
                        self._hook_countdown = self._hook_stride
                        hooks.on_events(
                            self._hook_stride, self._now, self.pending_events
                        )
                budget -= 1
                if not budget:
                    _gc.collect(1)
                    budget = _GC_EVENT_BATCH
                callbacks = event.callbacks
                if callbacks is None:
                    event.fire()
                    continue
                event.callbacks = None
                if len(callbacks) == 1:
                    # Nearly every event has exactly one waiter (a
                    # process's resume callback); skipping the iterator
                    # protocol for that case is measurable at kernel
                    # scale.
                    callbacks[0](event)
                else:
                    # Later waiters run at this instant after earlier
                    # ones: no waiter may continue in place meanwhile.
                    self._fanout = True
                    for callback in callbacks:
                        callback(event)
                    self._fanout = False
                if not event._ok and not event._defused:
                    # A failure nobody handled: surface it instead of
                    # silently dropping the exception.
                    raise event._value
        finally:
            self._gc_budget = budget

    def _run(self, until: Any) -> Any:
        if until is None:
            self._drain()
            return None

        if isinstance(until, Event):
            if until.triggered:
                return until.value if until._ok else None

            def _stop(event: Event) -> None:
                raise StopSimulation(event)

            until.callbacks.append(_stop)
            try:
                self._drain()
            except StopSimulation:
                if not until._ok:
                    until._defused = True
                    raise until._value
                return until._value
            raise SimulationError(
                "schedule drained before the target event triggered"
            )

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        imm = self._imm
        imm_pop = imm.popleft
        buckets = self._buckets
        budget = self._gc_budget
        hooks = self._hooks
        self._horizon = horizon
        try:
            while True:
                if imm:
                    event = imm_pop()
                else:
                    pos = self._active_pos
                    bucket = buckets[self._active_idx]
                    if pos < len(bucket):
                        entry = bucket[pos]
                        if entry[0] > horizon:
                            break
                        self._active_pos = pos + 1
                        self._timed_count -= 1
                    elif self._timed_count:
                        self._normalize_wheel()
                        continue
                    elif self._spill:
                        if self._spill[0][0] > horizon:
                            break
                        self._rotate_to_spill()
                        continue
                    else:
                        break
                    self._now = entry[0]
                    event = entry[2]
                if hooks is not None:
                    countdown = self._hook_countdown - 1
                    if countdown:
                        self._hook_countdown = countdown
                    else:
                        self._hook_countdown = self._hook_stride
                        hooks.on_events(
                            self._hook_stride, self._now, self.pending_events
                        )
                budget -= 1
                if not budget:
                    _gc.collect(1)
                    budget = _GC_EVENT_BATCH
                callbacks = event.callbacks
                if callbacks is None:
                    event.fire()
                    continue
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    self._fanout = True
                    for callback in callbacks:
                        callback(event)
                    self._fanout = False
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._gc_budget = budget
        self._now = horizon
        return None


class WorldCollector:
    """The cyclic collector's discipline around building and running
    one world::

        with WorldCollector() as collector:
            sim = Simulator()
            ...  # build the world
            collector.run(sim, until=duration)

    A freshly built world is tens of thousands of live generators,
    events and monitors, so the collections its build triggers reclaim
    nothing: at 10k users (``fig9-10k``) the build set off 103
    generation-0, 9 generation-1 and 1 full collection, and a full
    ``gc.collect()`` before the run added one more, all collecting 0
    objects and together over half of the set-up time.  So:

    * On entry, one full collection runs only while a
      :class:`Simulator` built earlier in this process is still alive.
      A dropped world is a web of cycles that only a full sweep
      reclaims; freezing it along with the next world would keep it
      for good, and a sweep of runs would grow without bound.  When
      every earlier world is gone there is nothing worth sweeping.
    * The collector stays off through the build.
    * :meth:`run` freezes the built world without collecting, so the
      kernel's batched generation-1 collections skip it, re-enables
      the collector and runs the simulation.
    * On exit, raise or not, the world is unfrozen and the collector
      re-enabled.

    A caller's own frozen set is respected: with a non-zero
    ``gc.get_freeze_count()`` nothing is frozen or thawed, so the count
    is left as it was found (``gc.unfreeze`` would thaw the caller's
    objects too).  With the collector off on entry the whole
    discipline is a no-op — the forked shard worker keeps it off for
    its whole life.  Pure memory management: results are identical
    either way.
    """

    __slots__ = ("_active", "_frozen")

    def __enter__(self) -> "WorldCollector":
        self._active = _gc.isenabled()
        self._frozen = False
        if self._active:
            if _worlds:
                _gc.collect()
            _gc.disable()
        return self

    def run(self, sim: Simulator, until: Any = None) -> Any:
        """Freeze the built world and run ``sim`` (``Simulator.run``)."""
        if self._active:
            if not _gc.get_freeze_count():
                _gc.freeze()
                self._frozen = True
            _gc.enable()
        return sim.run(until)

    def __exit__(self, *exc_info: Any) -> None:
        if self._active:
            if self._frozen:
                _gc.unfreeze()
            _gc.enable()
