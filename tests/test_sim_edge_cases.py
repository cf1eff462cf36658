"""Edge-case tests for the DES kernel's less-travelled paths."""

import pytest

from repro.sim import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestRunUntilEvent:
    def test_run_until_failed_event_raises(self, sim):
        target = sim.event()
        sim.call_in(1.0, lambda: target.fail(ValueError("boom")))
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=target)

    def test_run_until_never_triggering_event_raises(self, sim):
        target = sim.event()
        sim.call_in(1.0, lambda: None)
        with pytest.raises(SimulationError, match="drained"):
            sim.run(until=target)

    def test_run_until_already_triggered_event(self, sim):
        target = sim.event()
        target.succeed("done")
        assert sim.run(until=target) == "done"


class TestProcessEdgeCases:
    def test_process_failing_before_first_yield(self, sim):
        def broken(sim):
            raise ValueError("instant")
            yield  # pragma: no cover

        def waiter(sim):
            try:
                yield sim.process(broken(sim))
            except ValueError as exc:
                return str(exc)

        process = sim.process(waiter(sim))
        sim.run()
        assert process.value == "instant"

    def test_process_returning_without_yield(self, sim):
        def immediate(sim):
            return "early"
            yield  # pragma: no cover

        process = sim.process(immediate(sim))
        sim.run()
        assert process.value == "early"

    def test_interrupt_cause_accessible(self, sim):
        def sleeper(sim):
            try:
                yield 10.0
            except Interrupt as interrupt:
                return interrupt.cause

        process = sim.process(sleeper(sim))
        sim.call_in(0.1, lambda: process.interrupt({"reason": "test"}))
        sim.run()
        assert process.value == {"reason": "test"}

    def test_chained_process_waits(self, sim):
        """A process waiting on a process waiting on a process."""

        def level(sim, depth):
            if depth == 0:
                yield 1.0
                return 0
            value = yield sim.process(level(sim, depth - 1))
            return value + 1

        process = sim.process(level(sim, 5))
        sim.run()
        assert process.value == 5
        assert sim.now == 1.0


class TestEventRepr:
    def test_states_render(self, sim):
        pending = sim.event()
        assert "pending" in repr(pending)
        done = sim.event()
        done.succeed()
        assert "ok" in repr(done)
        failed = sim.event()
        failed.fail(RuntimeError())
        failed.defuse()
        assert "failed" in repr(failed)
        sim.run()
