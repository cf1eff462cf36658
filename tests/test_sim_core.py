"""Unit tests for the DES kernel (events, processes, scheduling)."""

import pytest

import gc

import numpy as np

from repro.sim import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)
from repro.sim.sharded import EventCounter


@pytest.fixture
def sim():
    return Simulator()


class TestSimulatorBasics:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_run_empty_schedule_is_noop(self, sim):
        sim.run()
        assert sim.now == 0.0

    def test_run_until_time_advances_clock(self, sim):
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_past_time_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_event_time(self, sim):
        sim.call_in(3.0, lambda: None)
        assert sim.peek() == 3.0


def sleeper(sim, delay, log, tag=None):
    """Sleep ``delay`` and log ``(now, tag, resumed value)``."""
    value = yield delay
    log.append((sim.now, tag, value))


class TestTimeout:
    """A process sleeps by yielding its delay in seconds."""

    def test_timeout_fires_at_delay(self, sim):
        fired = []
        sim.process(sleeper(sim, 2.5, fired))
        sim.run()
        assert fired == [(2.5, None, None)]

    def test_timeout_carries_value(self, sim):
        # A sleep resumes with None; a value-carrying timer is gone.
        log = []
        sim.process(sleeper(sim, 1.0, log))
        timer = sim.call_in(1.0, lambda: None)
        sim.run()
        assert log == [(1.0, None, None)] and timer.value is None

    def test_negative_delay_rejected(self, sim):
        sim.process(sleeper(sim, -1.0, []))
        with pytest.raises(SimulationError):
            sim.run()

    def test_zero_delay_fires_immediately(self, sim):
        log = []
        sim.process(sleeper(sim, 0.0, log))
        sim.run()
        assert log == [(0.0, None, None)] and sim.now == 0.0
        # One timed entry, like any other sleep.
        assert sim._seq == 1

    def test_timeouts_fire_in_order(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.process(sleeper(sim, delay, order, delay))
        sim.run()
        assert [tag for _, tag, _ in order] == [1.0, 2.0, 3.0]

    def test_equal_time_fifo(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            sim.process(sleeper(sim, 1.0, order, tag))
        sim.run()
        assert [tag for _, tag, _ in order] == ["a", "b", "c"]


class TestSleep:
    def test_interrupted_sleeper_resumes_once(self, sim):
        hooks = EventCounter()
        sim.attach_hooks(hooks)
        resumes = []

        def body(sim):
            try:
                yield 5.0
                resumes.append((sim.now, "woke"))
            except Interrupt as interrupt:
                resumes.append((sim.now, interrupt.cause))
            yield 10.0  # a fresh wake: the first one is retired
            resumes.append((sim.now, "slept"))

        proc = sim.process(body(sim))
        sim.run(until=1.0)
        wake = proc._wake
        proc.interrupt("stop")
        assert proc._wake is None
        sim.run(until=6.0)
        # _Initialize, the interrupt, and the retired wake at t=5,
        # which fires as a no-op.
        assert resumes == [(1.0, "stop")]
        assert hooks.count == 3
        assert proc._wake is not wake
        sim.run()
        assert resumes == [(1.0, "stop"), (11.0, "slept")]
        # Plus the second wake and the process's completion.
        assert hooks.count == 5 and sim._seq == 2

    @pytest.mark.parametrize(
        "delay", [-1.0, float("nan"), float("inf"), True, "1.0", None]
    )
    def test_invalid_delay_raises_inside_generator(self, sim, delay):
        caught = []

        def body(sim):
            try:
                yield delay
            except SimulationError as exc:
                caught.append(exc)
                raise

        sim.process(body(sim))
        with pytest.raises(SimulationError):
            sim.run()
        assert len(caught) == 1 and sim._seq == 0

    def test_int_delay_sleeps_one_second(self, sim):
        log = []
        sim.process(sleeper(sim, 1, log))
        sim.run()
        assert log == [(1.0, None, None)]
        assert type(sim.now) is float

    def test_numpy_delays_are_accepted(self, sim):
        log = []
        sim.process(sleeper(sim, np.float64(0.5), log, "f64"))
        sim.process(sleeper(sim, np.float32(0.25), log, "f32"))
        sim.process(sleeper(sim, np.int64(2), log, "i64"))
        sim.run()
        assert log == [
            (0.25, "f32", None), (0.5, "f64", None), (2.0, "i64", None),
        ]
        assert type(sim.now) is float


class TestNonEventErrorPath:
    """A yield that is neither an event nor a delay throws
    ``SimulationError`` into the generator; what the generator does with
    it takes the normal resume step."""

    def test_catch_and_return_succeeds_the_process(self, sim):
        def body(sim):
            try:
                yield object()
            except SimulationError:
                return "cleaned up"

        proc = sim.process(body(sim))
        sim.run()
        assert proc.triggered and proc.ok
        assert proc.value == "cleaned up"

    def test_catch_and_yield_honours_the_sleep(self, sim):
        def body(sim):
            try:
                yield object()
            except SimulationError:
                yield 0.5
            return sim.now

        proc = sim.process(body(sim))
        sim.run()
        assert proc.value == 0.5 and sim.now == 0.5
        assert sim._seq == 1

    def test_catch_and_reraise_fails_the_process(self, sim):
        def body(sim):
            try:
                yield object()
            except SimulationError:
                raise

        proc = sim.process(body(sim))
        with pytest.raises(SimulationError, match="neither an event"):
            sim.run()
        assert proc.triggered and proc.ok is False
        assert isinstance(proc.value, SimulationError)

    def test_uncaught_error_reaches_a_waiter(self, sim):
        def child(sim):
            yield object()

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except SimulationError:
                return "handled"

        proc = sim.process(parent(sim))
        sim.run()
        assert proc.value == "handled"


class TestEvent:
    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_succeed_sets_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok and ev.value == 42

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_unhandled_failure_raises_at_run(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_defused_failure_does_not_raise(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        ev.defuse()
        sim.run()  # no exception


class TestProcess:
    def test_process_return_value(self, sim):
        def proc(sim):
            yield 1.0
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "done"

    def test_process_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_rpc_style_nesting(self, sim):
        def inner(sim):
            yield 2.0
            return 10

        def outer(sim):
            value = yield sim.process(inner(sim))
            return value * 2

        p = sim.process(outer(sim))
        sim.run()
        assert p.value == 20
        assert sim.now == 2.0

    def test_yield_from_composition(self, sim):
        def helper(sim):
            yield 1.0
            return 5

        def main(sim):
            a = yield from helper(sim)
            b = yield from helper(sim)
            return a + b

        p = sim.process(main(sim))
        sim.run()
        assert p.value == 10 and sim.now == 2.0

    def test_process_exception_propagates_to_waiter(self, sim):
        def failing(sim):
            yield 1.0
            raise ValueError("inner failure")

        bad = sim.event()

        def waiter(sim):
            caught = []
            try:
                yield sim.process(failing(sim))
            except ValueError as exc:
                caught.append(str(exc))
            # A plain event failed later from a callback is thrown in the
            # same way; the waiter handled it, so run() does not re-raise.
            try:
                yield bad
            except RuntimeError as exc:
                caught.append(str(exc))
            return caught

        p = sim.process(waiter(sim))
        sim.call_in(2.0, lambda: bad.fail(RuntimeError("broken")))
        sim.run()
        assert p.value == ["inner failure", "broken"]

    def test_unwaited_process_failure_surfaces(self, sim):
        def failing(sim):
            yield 1.0
            raise ValueError("lost")

        sim.process(failing(sim))
        with pytest.raises(ValueError, match="lost"):
            sim.run()

    def test_yielding_non_event_is_an_error(self, sim):
        def bad(sim):
            yield object()  # 42 would be a 42 s sleep

        sim.process(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_process_event(self, sim):
        def proc(sim):
            yield 3.0
            return "target"

        p = sim.process(proc(sim))
        sim.call_in(100.0, lambda: None)  # later noise that should not run
        value = sim.run(until=p)
        assert value == "target"
        assert sim.now == 3.0

    def test_two_processes_interleave(self, sim):
        log = []

        def proc(sim, name, delay):
            for _ in range(3):
                yield delay
                log.append((sim.now, name))

        sim.process(proc(sim, "fast", 1.0))
        sim.process(proc(sim, "slow", 2.0))
        sim.run()
        # At t=2.0 "slow" fires first: its sleep was scheduled at
        # t=0, before "fast" rescheduled at t=1 (FIFO among equal times).
        assert log == [
            (1.0, "fast"),
            (2.0, "slow"),
            (2.0, "fast"),
            (3.0, "fast"),
            (4.0, "slow"),
            (6.0, "slow"),
        ]


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        def sleeper(sim):
            try:
                yield 10.0
                return "overslept"
            except Interrupt as interrupt:
                return interrupt.cause

        p = sim.process(sleeper(sim))
        sim.call_in(1.0, lambda: p.interrupt("alarm"))
        sim.run()
        assert p.value == "alarm"

    def test_interrupt_dead_process_raises(self, sim):
        def quick(sim):
            yield 0.1

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self, sim):
        def resilient(sim):
            try:
                yield 10.0
            except Interrupt:
                yield 1.0
                return "recovered"

        p = sim.process(resilient(sim))
        sim.call_in(2.0, lambda: p.interrupt())
        sim.run()
        assert p.value == "recovered" and sim.now == 10.0  # retired wake drains


class TestCallAt:
    def test_call_at_runs_at_time(self, sim):
        hits = []
        sim.call_at(4.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [4.0]

    def test_call_in_relative(self, sim):
        hits = []

        def proc(sim):
            yield 2.0
            sim.call_in(3.0, lambda: hits.append(sim.now))

        sim.process(proc(sim))
        sim.run()
        assert hits == [5.0]

    def test_call_at_past_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)
