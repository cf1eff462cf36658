"""Unit tests for the Resource pool primitive."""

import pytest

from repro.sim import (
    CapacityError,
    Resource,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestResourceGrant:
    def test_immediate_grant_under_capacity(self, sim):
        pool = Resource(sim, capacity=2)
        req = pool.request()
        assert req.triggered
        assert pool.in_use == 1

    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_waiters_queue_fifo(self, sim):
        pool = Resource(sim, capacity=1)
        first = pool.request()
        second = pool.request()
        third = pool.request()
        assert first.triggered and not second.triggered
        pool.release(first)
        assert second.triggered and not third.triggered
        pool.release(second)
        assert third.triggered

    def test_release_unheld_raises(self, sim):
        pool = Resource(sim, capacity=1)
        held = pool.request()
        waiting = pool.request()
        with pytest.raises(SimulationError):
            pool.release(waiting)
        pool.release(held)

    def test_occupancy_counts_users_and_waiters(self, sim):
        pool = Resource(sim, capacity=1)
        pool.request()
        pool.request()
        assert pool.occupancy == 2
        assert pool.in_use == 1
        assert pool.queued == 1


class TestResourceBoundedQueue:
    def test_full_queue_rejects(self, sim):
        pool = Resource(sim, capacity=1, max_queue=1)
        pool.request()
        pool.request()  # fills the one waiting slot
        with pytest.raises(CapacityError):
            pool.request()
        assert pool.total_rejections == 1

    def test_zero_queue_rejects_when_busy(self, sim):
        pool = Resource(sim, capacity=1, max_queue=0)
        pool.request()
        with pytest.raises(CapacityError):
            pool.request()

    def test_rejection_does_not_change_occupancy(self, sim):
        pool = Resource(sim, capacity=1, max_queue=0)
        pool.request()
        with pytest.raises(CapacityError):
            pool.request()
        assert pool.occupancy == 1

    def test_negative_max_queue_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=1, max_queue=-1)


class TestTryRequest:
    """The non-raising admission call behind ``request``."""

    def test_discrete_grant_queue_then_none(self, sim):
        pool = Resource(sim, capacity=1, max_queue=1)
        granted = pool.try_request()
        queued = pool.try_request()
        assert granted.triggered and not queued.triggered
        assert pool.try_request() is None
        assert (pool.in_use, pool.queued) == (1, 1)
        assert (pool.total_requests, pool.total_rejections) == (3, 1)
        assert (pool.peak_in_use, pool.peak_queued) == (1, 1)

    def test_unbounded_queue_never_returns_none(self, sim):
        pool = Resource(sim, capacity=1)
        tokens = [pool.try_request() for _ in range(50)]
        assert all(token is not None for token in tokens)
        assert pool.queued == 49
        assert pool.total_rejections == 0

    def test_hybrid_spill_rejects(self, sim):
        # capacity 2 + backlog 2, background 3: bulk holds both slots
        # and one backlog seat, leaving one seat for a discrete waiter.
        pool = Resource(sim, capacity=2, max_queue=2)
        pool.set_background(3.0)
        queued = pool.try_request()
        assert queued is not None and not queued.triggered
        assert pool.try_request() is None
        assert pool.total_rejections == 1
        assert (pool.in_use, pool.queued) == (0, 1)

    def test_hybrid_grant_below_fractional_background(self, sim):
        pool = Resource(sim, capacity=2, max_queue=0)
        pool.set_background(0.5)
        assert pool.try_request().triggered  # 0 + 0.5 < 2
        # 1 + 0.5 < 2 still grants; 2 + 0.5 does not, and the spill of
        # 0.5 fills the zero-seat backlog.
        assert pool.try_request().triggered
        assert pool.try_request() is None
        assert (pool.in_use, pool.total_rejections) == (2, 1)

    def test_hybrid_bulk_below_capacity_spills_nothing(self, sim):
        # Background 1 of capacity 2: one discrete holder fills the
        # pool (1 + 1 >= 2) with no spill, so a one-seat backlog still
        # takes exactly one waiter.
        pool = Resource(sim, capacity=2, max_queue=1)
        pool.set_background(1.0)
        assert pool.try_request().triggered
        assert not pool.try_request().triggered
        assert pool.try_request() is None

    def test_request_raises_where_try_request_returns_none(self, sim):
        pool = Resource(sim, capacity=1, max_queue=0)
        pool.request()
        assert pool.try_request() is None
        with pytest.raises(CapacityError, match="0 waiters"):
            pool.request()
        assert pool.total_rejections == 2


class TestResourceCancel:
    def test_cancel_removes_waiter(self, sim):
        pool = Resource(sim, capacity=1)
        pool.request()
        waiter = pool.request()
        pool.cancel(waiter)
        assert pool.queued == 0

    def test_cancel_granted_raises(self, sim):
        pool = Resource(sim, capacity=1)
        held = pool.request()
        with pytest.raises(SimulationError):
            pool.cancel(held)

    def test_cancelled_waiter_skipped_on_release(self, sim):
        pool = Resource(sim, capacity=1)
        held = pool.request()
        cancelled = pool.request()
        survivor = pool.request()
        cancelled.succeed("externally")  # simulate a timed-out waiter
        pool.release(held)
        assert survivor.triggered
        assert pool.in_use == 1


class TestResourceInProcesses:
    def test_hold_and_release_cycle(self, sim):
        pool = Resource(sim, capacity=1)
        log = []

        def user(sim, name, hold):
            req = pool.request()
            yield req
            log.append((sim.now, name, "acquired"))
            yield hold
            pool.release(req)

        sim.process(user(sim, "u1", 2.0))
        sim.process(user(sim, "u2", 1.0))
        sim.run()
        assert log == [(0.0, "u1", "acquired"), (2.0, "u2", "acquired")]

    def test_peak_tracking(self, sim):
        pool = Resource(sim, capacity=2)

        def user(sim, hold):
            req = pool.request()
            yield req
            yield hold
            pool.release(req)

        for _ in range(4):
            sim.process(user(sim, 1.0))
        sim.run()
        assert pool.peak_in_use == 2
        assert pool.peak_queued == 2
        assert pool.total_requests == 4

