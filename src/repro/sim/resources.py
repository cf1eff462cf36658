"""Shared-resource primitive for the DES kernel.

:class:`Resource` is the concurrency-control building block the n-tier
model needs: a counted resource (thread pool / connection pool) with an
optionally *bounded* wait queue.  Bounded queues are the heart of the
paper's model: the per-tier queue size ``Q_i`` is the tier's thread pool
plus its admission backlog, and a full queue means the request is
rejected (at the front-most tier: a TCP-level drop).  Admission
(:meth:`Resource.try_request`) is a synchronous call that returns the
grant token or ``None``, so a rejection costs no exception and no
event.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from .core import _PENDING, Event, SimulationError, Simulator

__all__ = ["Resource", "Request", "CapacityError"]


class CapacityError(SimulationError):
    """Raised when a bounded wait queue cannot accept another waiter."""


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager inside a process::

        req = pool.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            pool.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Flattened Event.__init__ — one Request per tier visit makes
        # this allocation path hot at population scale.
        self.sim = resource.sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.resource = resource


class Resource:
    """A counted, FIFO resource with an optionally bounded wait queue.

    ``capacity`` is the number of concurrent holders (threads).
    ``max_queue`` bounds the number of *waiting* requests; ``None`` means
    unbounded.  When the wait queue is full, :meth:`try_request`
    returns ``None`` synchronously — callers model a drop — and
    :meth:`request` raises :class:`CapacityError`.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        max_queue: Optional[int] = None,
    ):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        if max_queue is not None and max_queue < 0:
            raise SimulationError(f"max_queue must be >= 0, got {max_queue}")
        self.sim = sim
        self.capacity = int(capacity)
        self.max_queue = max_queue
        # Fluid background occupancy (hybrid engine): a continuous
        # number of bulk-population holders/waiters occupying this pool.
        # 0.0 keeps request/release on the exact pre-hybrid code path.
        self.background = 0.0
        # Granted requests, insertion-ordered.  A dict (used as an
        # ordered set) keeps membership tests and release O(1); with a
        # list the release scan is O(capacity) and tier pools run to
        # hundreds of threads.
        self.users: Dict[Request, None] = {}
        self.queue: Deque[Request] = deque()
        # High-water marks, useful for assertions and monitoring.
        self.peak_in_use = 0
        self.peak_queued = 0
        self.total_requests = 0
        self.total_rejections = 0

    # -- introspection ---------------------------------------------------

    @property
    def in_use(self) -> int:
        """Number of currently granted requests."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self.queue)

    @property
    def occupancy(self) -> int:
        """Holders plus waiters — the paper's per-tier queue length."""
        return len(self.users) + len(self.queue)

    # -- operations -------------------------------------------------------

    def try_request(self) -> Optional[Request]:
        """Claim one unit, or return ``None`` if the wait queue is full.

        The returned event triggers when granted.  This is the one copy
        of the admission arithmetic: a rejection is a plain return, so
        a drop allocates no event and raises nothing.
        """
        self.total_requests += 1
        users = self.users
        background = self.background
        if background == 0.0:
            grant = len(users) < self.capacity
        else:
            # Hybrid path: bulk occupancy fills capacity slots first,
            # then spills into the bounded backlog, shrinking both for
            # the sampled discrete population.
            grant = len(users) + background < self.capacity
        if grant:
            req = Request(self)
            users[req] = None
            if len(users) > self.peak_in_use:
                self.peak_in_use = len(users)
            # Inlined req.succeed(): a fresh Request is always pending.
            # Grants are urgent (due now) — straight into the FIFO deque.
            req._ok = True
            req._value = None
            self.sim._imm.append(req)
            return req
        max_queue = self.max_queue
        if max_queue is not None:
            waiting = len(self.queue)
            if background != 0.0:
                spill = background - (self.capacity - len(users))
                if spill > 0.0:
                    waiting += spill
            if waiting >= max_queue:
                self.total_rejections += 1
                return None
        req = Request(self)
        self.queue.append(req)
        if len(self.queue) > self.peak_queued:
            self.peak_queued = len(self.queue)
        return req

    def request(self) -> Request:
        """Claim one unit; the returned event triggers when granted.

        Raises :class:`CapacityError` if the wait queue is full.
        """
        req = self.try_request()
        if req is None:
            raise CapacityError(
                f"wait queue full ({self.max_queue} waiters)"
            )
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit and wake the next waiter."""
        try:
            del self.users[request]
        except KeyError:
            raise SimulationError(
                "release() of a request that does not hold the resource"
            ) from None
        if self.background != 0.0 and (
            len(self.users) + self.background >= self.capacity
        ):
            # Bulk occupancy still fills the freed slot; no promotion.
            return
        while self.queue:
            nxt = self.queue.popleft()
            if nxt._value is not _PENDING:
                # Cancelled while waiting (e.g. timed-out); skip it.
                continue
            users = self.users
            users[nxt] = None
            if len(users) > self.peak_in_use:
                self.peak_in_use = len(users)
            # Inlined nxt.succeed() (pending checked just above).
            nxt._ok = True
            nxt._value = None
            self.sim._imm.append(nxt)
            break

    def set_background(self, background: float) -> None:
        """Set the fluid bulk occupancy of this pool (hybrid coupling).

        ``background`` holders/waiters from the fluid bulk population
        occupy capacity slots first and then backlog slots, shrinking
        the effective pool the sampled discrete requests compete for.
        Lowering it promotes waiting discrete requests into any slots
        the bulk vacated; 0.0 restores pre-hybrid behaviour exactly.
        """
        if background < 0:
            background = 0.0
        self.background = float(background)
        # Promote waiters into slots the bulk no longer occupies.
        while self.queue and (
            len(self.users) + self.background < self.capacity
        ):
            nxt = self.queue.popleft()
            if nxt._value is not _PENDING:
                continue  # Cancelled while waiting; skip it.
            users = self.users
            users[nxt] = None
            if len(users) > self.peak_in_use:
                self.peak_in_use = len(users)
            nxt._ok = True
            nxt._value = None
            self.sim._imm.append(nxt)

    def cancel(self, request: Request) -> None:
        """Withdraw a waiting request (e.g. after a wait timeout).

        Granted requests must be released, not cancelled.
        """
        if request in self.users:
            raise SimulationError("cancel() of a granted request")
        try:
            self.queue.remove(request)
        except ValueError:
            pass
