"""Direct unit coverage for kernel edge cases the calendar-queue
refactor must not break: condition events with pre-triggered members,
zero-delay timeout vs. urgent ordering, interrupt-during-resume, and
the wheel/spill machinery itself (window rotation, cursor demotion,
re-entry after a horizon stop), and the kernel's memory discipline
(finished processes are acyclic; the batched-GC cadence spans run()
calls)."""

import gc
import weakref

import pytest

from repro.sim import core
from repro.sim.core import (
    Interrupt,
    Process,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


def collect(order, label):
    """Callback factory: append ``label`` to ``order`` on dispatch."""
    return lambda _event: order.append(label)


class TestConditionPreTriggered:
    def test_any_of_with_processed_member(self, sim):
        ev = sim.event()
        ev.succeed("early")
        sim.run(until=sim.now)  # process ev: callbacks are gone, value is set
        assert ev.processed
        cond = sim.any_of([ev, sim.event()])
        assert cond.triggered
        sim.run()
        assert cond.value == {ev: "early"}

    def test_any_of_with_triggered_unprocessed_member(self, sim):
        ev = sim.event()
        ev.succeed("early")  # triggered but not yet dispatched
        cond = sim.any_of([ev, sim.event()])
        assert not cond.triggered  # fires via ev's callback at dispatch
        sim.run()
        assert cond.triggered
        assert cond.value == {ev: "early"}

    def test_all_of_with_all_members_processed(self, sim):
        first, second = sim.event(), sim.event()
        first.succeed(1)
        second.succeed(2)
        sim.run(until=sim.now)
        cond = sim.all_of([first, second])
        assert cond.triggered
        assert cond.value == {first: 1, second: 2}

    def test_all_of_mixing_processed_and_pending(self, sim):
        done, pending = sim.event(), sim.event()
        done.succeed("a")
        sim.run(until=sim.now)
        cond = sim.all_of([done, pending])
        assert not cond.triggered
        pending.succeed("b")
        sim.run()
        assert cond.value == {done: "a", pending: "b"}

    def test_any_of_with_processed_failed_member(self, sim):
        boom = sim.event()
        boom.fail(RuntimeError("boom"))
        boom.defuse()
        sim.run(until=sim.now)
        cond = sim.any_of([boom, sim.event()])
        assert cond.triggered and not cond.ok
        cond.defuse()
        sim.run()

    def test_empty_condition_triggers_immediately(self, sim):
        cond = sim.all_of([])
        assert cond.triggered
        sim.run()
        assert cond.value == {}


class TestUrgentVsTimedOrdering:
    def test_urgent_beats_earlier_scheduled_zero_delay_timeout(self, sim):
        """Priority dominates the sequence counter: an urgent event
        scheduled *after* a zero-delay timeout still dispatches first."""
        order = []
        timer = sim.timeout(0.0)
        urgent = sim.event().succeed()
        timer.callbacks.append(collect(order, "timeout"))
        urgent.callbacks.append(collect(order, "urgent"))
        sim.run()
        assert order == ["urgent", "timeout"]

    def test_urgent_beats_later_scheduled_zero_delay_timeout(self, sim):
        order = []
        urgent = sim.event().succeed()
        timer = sim.timeout(0.0)
        urgent.callbacks.append(collect(order, "urgent"))
        timer.callbacks.append(collect(order, "timeout"))
        sim.run()
        assert order == ["urgent", "timeout"]

    def test_urgent_events_keep_fifo_order(self, sim):
        order = []
        for label in ("a", "b", "c"):
            sim.event().succeed().callbacks.append(collect(order, label))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_time_timeouts_keep_creation_order(self, sim):
        order = []
        for label in ("a", "b", "c"):
            sim.timeout(1.0).callbacks.append(collect(order, label))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 1.0

    def test_urgent_scheduled_mid_run_preempts_due_timeout(self, sim):
        """An event succeeded during dispatch at time t runs before a
        timeout that is also due at t but still queued."""
        order = []
        gate = sim.event()
        first = sim.timeout(1.0)
        second = sim.timeout(1.0)
        first.callbacks.append(lambda _e: gate.succeed())
        gate.callbacks.append(collect(order, "urgent"))
        second.callbacks.append(collect(order, "second-timeout"))
        sim.run()
        assert order == ["urgent", "second-timeout"]


class TestInterruptDuringResume:
    def test_interrupt_while_target_mid_dispatch(self, sim):
        """interrupt() fired from a callback of the victim's own target
        event cannot detach the victim (callbacks already captured), so
        the victim resumes normally, terminates, and the interrupt
        failure arrives stale — it must be swallowed, not thrown into a
        closed generator."""
        log = []
        trigger = sim.event()
        procs = {}

        def victim(sim):
            try:
                yield trigger
                log.append("victim-done")
            except Interrupt:  # pragma: no cover - must not happen
                log.append("victim-interrupted")

        def interrupter(sim):
            yield trigger
            proc = procs["victim"]
            assert proc.is_alive
            proc.interrupt("late")
            log.append("interrupted")

        # The interrupter parks on trigger first, so it resumes first
        # from trigger's captured callback list.
        sim.process(interrupter(sim))
        procs["victim"] = sim.process(victim(sim))
        sim.call_in(1.0, trigger.succeed)
        sim.run()
        assert log == ["interrupted", "victim-done"]
        assert not procs["victim"].is_alive

    def test_double_interrupt_before_delivery(self, sim):
        """Two interrupts queued back-to-back: the victim terminates on
        the first, and the second (defused) failure must not resume the
        dead generator."""

        def victim(sim):
            try:
                yield sim.timeout(10.0)
            except Interrupt as intr:
                return f"stopped:{intr.cause}"

        def attacker(sim, proc):
            yield sim.timeout(1.0)
            proc.interrupt("one")
            proc.interrupt("two")

        proc = sim.process(victim(sim))
        sim.process(attacker(sim, proc))
        sim.run()
        assert proc.value == "stopped:one"

    def test_interrupted_then_reinterrupted_while_alive(self, sim):
        """A victim that survives the first interrupt still receives the
        second one."""
        causes = []

        def victim(sim):
            for _ in range(2):
                try:
                    yield sim.timeout(10.0)
                except Interrupt as intr:
                    causes.append(intr.cause)
            return "survived"

        def attacker(sim, proc):
            yield sim.timeout(1.0)
            proc.interrupt("one")
            proc.interrupt("two")

        proc = sim.process(victim(sim))
        sim.process(attacker(sim, proc))
        sim.run()
        assert causes == ["one", "two"]


class TestCalendarQueueMachinery:
    def test_cross_window_ordering(self, sim):
        """Entries beyond the wheel window spill to the far heap and
        still dispatch in global time order across rotations."""
        span = sim._span
        delays = [
            3 * span + 0.5, 0.25, span - sim._width / 2, span + 0.125,
            0.5 * span, 10 * span, span + 0.25, 0.75,
        ]
        order = []
        for d in delays:
            sim.timeout(d).callbacks.append(collect(order, d))
        assert sim._spill  # some of those really crossed the window
        sim.run()
        assert order == sorted(delays)
        assert sim.now == max(delays)

    def test_demotion_after_peek(self, sim):
        """peek() advances the cursor to the next non-empty bucket; a
        later insert into an earlier (empty) bucket must pull the
        cursor back."""
        order = []
        sim.timeout(5.0).callbacks.append(collect(order, 5.0))
        assert sim.peek() == 5.0
        sim.timeout(1.0).callbacks.append(collect(order, 1.0))
        assert sim.peek() == 1.0
        sim.run()
        assert order == [1.0, 5.0]

    def test_reschedule_after_horizon_stop(self, sim):
        """run(until=t) halts the cursor mid-wheel; scheduling earlier
        than the halted position afterwards must still dispatch in
        order."""
        order = []
        sim.timeout(1.0).callbacks.append(collect(order, 1.0))
        sim.timeout(5.0).callbacks.append(collect(order, 5.0))
        sim.run(until=2.0)
        assert order == [1.0]
        assert sim.now == 2.0
        sim.timeout(0.5).callbacks.append(collect(order, 2.5))
        sim.timeout(0.25).callbacks.append(collect(order, 2.25))
        sim.run()
        assert order == [1.0, 2.25, 2.5, 5.0]

    def test_same_bucket_mixed_insert_orders(self, sim):
        """Inserts into the active bucket interleave correctly with
        already-consumed positions."""
        order = []

        def chain(sim):
            yield sim.timeout(1.0)
            order.append("first")
            # now == 1.0; schedule within the same bucket, after the
            # cursor has consumed the first entry.
            sim.timeout(sim._width / 4).callbacks.append(
                collect(order, "second")
            )

        sim.process(chain(sim))
        sim.timeout(1.0 + sim._width / 2).callbacks.append(
            collect(order, "third")
        )
        sim.run()
        assert order == ["first", "second", "third"]

    def test_non_finite_schedule_time_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(float("inf"))
        with pytest.raises(SimulationError):
            sim.timeout(float("nan"))

    def test_peek_and_run_until_now_with_mixed_queues(self, sim):
        order = []
        sim.timeout(3.0).callbacks.append(collect(order, "timed"))
        assert sim.peek() == 3.0
        sim.event().succeed().callbacks.append(collect(order, "urgent"))
        assert sim.peek() == 0.0  # urgent is due now
        sim.run(until=sim.now)  # dispatches what is due now, no more
        assert order == ["urgent"]
        assert sim.now == 0.0
        assert sim.peek() == 3.0
        sim.run(until=sim.peek())
        assert order == ["urgent", "timed"]
        assert sim.now == 3.0
        assert sim.peek() == float("inf")

    def test_pending_events_counts_all_queues(self, sim):
        assert sim.pending_events == 0
        sim.event().succeed()                  # imm
        sim.timeout(1.0)                       # wheel
        sim.timeout(100 * sim._span)           # spill
        assert sim.pending_events == 3
        sim.run(until=2.0)
        assert sim.pending_events == 1

    def test_tiny_wheel_still_orders_correctly(self):
        """A degenerate 1-bucket wheel forces constant rotation; the
        dispatch order must be unaffected."""
        sim = Simulator(bucket_width=0.5, wheel_buckets=1)
        delays = [0.2, 1.7, 0.9, 3.1, 0.4, 2.6, 0.401, 1.1]
        order = []
        for d in delays:
            sim.timeout(d).callbacks.append(collect(order, d))
        sim.run()
        assert order == sorted(delays)

    def test_hooks_fire_during_run_until_event(self, sim):
        """The run(until=Event) loop reports batched hook events like
        the other loops (regression: it used to call a nonexistent
        per-event hook method)."""

        class Hooks:
            event_stride = 2

            def __init__(self):
                self.events = 0
                self.processes = 0

            def on_events(self, count, now, pending):
                self.events += count

            def on_process(self, process):
                self.processes += 1

        hooks = Hooks()
        sim.attach_hooks(hooks)

        def worker(sim):
            for _ in range(5):
                yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker(sim))
        assert sim.run(until=proc) == "done"
        sim.detach_hooks()
        # _Initialize + 5 timeouts + the process-completion event = 7
        assert hooks.events == 7
        assert hooks.processes == 1


class _WeakProcess(Process):
    """A process that can be weakly referenced (``Process`` cannot)."""

    __slots__ = ("__weakref__",)


@pytest.fixture
def gc_off():
    """Run with the cyclic collector disabled; restore it afterwards."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestProcessMemory:
    """A terminated process is freed by reference counting alone — the
    collector is off in shard workers, so a self-cycle would leak one
    process per cross-host RPC."""

    def test_finished_process_dies_with_last_reference(self, sim, gc_off):
        def body(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = _WeakProcess(sim, body(sim))
        sim.run()
        assert proc.value == "done"
        ref = weakref.ref(proc)
        del proc
        assert ref() is None

    def test_failed_process_dies_with_last_reference(self, sim, gc_off):
        def body(sim):
            yield sim.timeout(1.0)
            raise ValueError("boom")

        proc = _WeakProcess(sim, body(sim))
        proc.defuse()
        sim.run()
        assert isinstance(proc.value, ValueError)
        ref = weakref.ref(proc)
        del proc
        assert ref() is None

    def test_interrupted_process_dies_with_last_reference(self, sim, gc_off):
        def body(sim):
            yield sim.timeout(10.0)

        proc = _WeakProcess(sim, body(sim))
        proc.defuse()
        sim.run(until=1.0)
        proc.interrupt("stop")
        sim.run()
        assert isinstance(proc.value, Interrupt)
        ref = weakref.ref(proc)
        del proc
        assert ref() is None


class TestBatchedGcCadence:
    """The batched-collection budget counts events across run() calls,
    so a run cut into safe windows collects as often as one long run."""

    EVENTS = 100
    BATCH = 7

    def _collections(self, monkeypatch, windows: bool) -> int:
        monkeypatch.setattr(core, "_GC_EVENT_BATCH", self.BATCH)
        sim = Simulator()
        step = 0.01
        for k in range(1, self.EVENTS + 1):
            sim.timeout(k * step)
        starts = []

        def on_gc(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        enabled = gc.isenabled()
        # With the collector off only the kernel's explicit batched
        # collections run, so every callback is one of them.
        gc.disable()
        gc.callbacks.append(on_gc)
        try:
            if windows:
                for k in range(1, self.EVENTS + 1):
                    sim.run(until=k * step)
            else:
                sim.run()
        finally:
            gc.callbacks.remove(on_gc)
            if enabled:
                gc.enable()
        assert set(starts) <= {1}
        return len(starts)

    def test_windows_match_one_long_run(self, monkeypatch):
        long_run = self._collections(monkeypatch, windows=False)
        assert long_run == self.EVENTS // self.BATCH
        assert self._collections(monkeypatch, windows=True) == long_run

    def test_budget_carries_from_horizon_loop_into_drain(self, monkeypatch):
        monkeypatch.setattr(core, "_GC_EVENT_BATCH", self.BATCH)
        sim = Simulator()
        for k in range(1, self.EVENTS + 1):
            sim.timeout(k * 0.01)
        sim.run(until=0.05)
        assert sim._gc_budget == self.BATCH - 5
        sim.run()
        assert sim._gc_budget == self.BATCH - self.EVENTS % self.BATCH
