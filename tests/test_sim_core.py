"""Unit tests for the DES kernel (events, processes, scheduling)."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
)


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
        sim.timeout(3.0)
        assert sim.peek() == 3.0


class TestTimeout:
    def test_timeout_fires_at_delay(self, sim):
        fired = []
        t = sim.timeout(2.5)
        t.callbacks.append(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_timeout_carries_value(self, sim):
        t = sim.timeout(1.0, value="payload")
        sim.run()
        assert t.value == "payload"

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, sim):
        t = sim.timeout(0.0)
        sim.run()
        assert t.processed and sim.now == 0.0

    def test_timeouts_fire_in_order(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            t = sim.timeout(delay)
            t.callbacks.append(lambda ev, d=delay: order.append(d))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_equal_time_fifo(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            t = sim.timeout(1.0)
            t.callbacks.append(lambda ev, x=tag: order.append(x))
        sim.run()
        assert order == ["a", "b", "c"]


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
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "done"

    def test_process_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_rpc_style_nesting(self, sim):
        def inner(sim):
            yield sim.timeout(2.0)
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
            yield sim.timeout(1.0)
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
            yield sim.timeout(1.0)
            raise ValueError("inner failure")

        def waiter(sim):
            try:
                yield sim.process(failing(sim))
            except ValueError as exc:
                return str(exc)

        p = sim.process(waiter(sim))
        sim.run()
        assert p.value == "inner failure"

    def test_unwaited_process_failure_surfaces(self, sim):
        def failing(sim):
            yield sim.timeout(1.0)
            raise ValueError("lost")

        sim.process(failing(sim))
        with pytest.raises(ValueError, match="lost"):
            sim.run()

    def test_yielding_non_event_is_an_error(self, sim):
        def bad(sim):
            yield 42

        sim.process(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_process_event(self, sim):
        def proc(sim):
            yield sim.timeout(3.0)
            return "target"

        p = sim.process(proc(sim))
        sim.timeout(100.0)  # later noise that should not run
        value = sim.run(until=p)
        assert value == "target"
        assert sim.now == 3.0

    def test_is_alive(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)

        p = sim.process(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_two_processes_interleave(self, sim):
        log = []

        def proc(sim, name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((sim.now, name))

        sim.process(proc(sim, "fast", 1.0))
        sim.process(proc(sim, "slow", 2.0))
        sim.run()
        # At t=2.0 "slow" fires first: its timeout was scheduled at
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
                yield sim.timeout(10.0)
                return "overslept"
            except Interrupt as interrupt:
                return interrupt.cause

        p = sim.process(sleeper(sim))
        sim.call_in(1.0, lambda: p.interrupt("alarm"))
        sim.run()
        assert p.value == "alarm"

    def test_interrupt_dead_process_raises(self, sim):
        def quick(sim):
            yield sim.timeout(0.1)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self, sim):
        def resilient(sim):
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                yield sim.timeout(1.0)
                return "recovered"

        p = sim.process(resilient(sim))
        sim.call_in(2.0, lambda: p.interrupt())
        sim.run()
        assert p.value == "recovered" and sim.now == 10.0  # stale timeout drains


class TestConditions:
    def test_any_of_first_wins(self, sim):
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(2.0, value="b")
        cond = sim.any_of([a, b])

        def waiter(sim):
            result = yield cond
            return result

        p = sim.process(waiter(sim))
        sim.run()
        assert a in p.value and sim.now >= 1.0

    def test_all_of_waits_for_all(self, sim):
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(3.0, value="b")

        def waiter(sim):
            result = yield sim.all_of([a, b])
            return (sim.now, len(result))

        p = sim.process(waiter(sim))
        sim.run()
        assert p.value == (3.0, 2)

    def test_empty_condition_triggers_immediately(self, sim):
        cond = sim.all_of([])
        assert cond.triggered

    def test_cross_simulator_events_rejected(self, sim):
        other = Simulator()
        t = other.timeout(1.0)
        with pytest.raises(SimulationError):
            sim.any_of([t])


class TestCallAt:
    def test_call_at_runs_at_time(self, sim):
        hits = []
        sim.call_at(4.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [4.0]

    def test_call_in_relative(self, sim):
        hits = []

        def proc(sim):
            yield sim.timeout(2.0)
            sim.call_in(3.0, lambda: hits.append(sim.now))

        sim.process(proc(sim))
        sim.run()
        assert hits == [5.0]

    def test_call_at_past_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)
