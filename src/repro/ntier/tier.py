"""A single tier of the n-tier system.

Each tier couples three things:

* a finite *concurrency pool* (server threads / DB connections) — the
  paper's per-tier queue size ``Q_i``;
* the tier VM's processor-sharing CPU, where service demand is burned;
* a reference to its downstream tier, invoked **synchronously**: the
  thread is held while the downstream call is outstanding.  This
  RPC-style coupling is the amplification mechanism — one queued
  request in MySQL pins a thread in Tomcat *and* Apache, so a
  millibottleneck at the back end drains the concurrency of every
  upstream tier (Section IV-B).

The front-most tier is created with a bounded backlog
(``max_backlog``): when it overflows, the request is dropped at TCP
level and the client retransmits after the RTO.  A visit is split into
a synchronous :meth:`Tier.admit`, which returns a pool token or
``None`` on a drop, and the :meth:`Tier.serve` generator that runs the
rest; the client handles a front-tier ``None`` inline, with no
exception.  A drop that happens after the visit has yielded — at an
inner tier with a bounded backlog, in a routed network hop, or on a
remote shard — raises :class:`TierOverflowError` up the chain to the
client instead.  Inner tiers normally wait (their waiters are bounded
naturally by the upstream tier's own pool).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..hardware.vm import VirtualMachine
from ..sim.core import _PENDING, Simulator
from ..sim.resources import Request as PoolRequest
from ..sim.resources import Resource
from .request import Request

__all__ = ["Tier", "TierOverflowError"]


class TierOverflowError(Exception):
    """A tier's admission queue was full; the request was dropped."""

    def __init__(self, tier: str):
        super().__init__(f"queue overflow at tier {tier!r}")
        self.tier = tier


class Tier:
    """One tier: thread pool + CPU + synchronous downstream link."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        vm: VirtualMachine,
        concurrency: int,
        max_backlog: Optional[int] = None,
        net_delay: float = 0.0002,
        work_split: float = 0.85,
    ):
        if not 0.0 < work_split <= 1.0:
            raise ValueError(f"work_split outside (0,1]: {work_split}")
        self.sim = sim
        self.name = name
        self.vm = vm
        self.pool = Resource(sim, capacity=concurrency, max_queue=max_backlog)
        self.downstream: Optional["Tier"] = None
        self.net_delay = net_delay
        # Directed queue chains to/from the downstream tier, installed
        # by repro.net.TierNetwork.attach when a scenario routes RPCs
        # through the finite-queue network model.  None (the default)
        # keeps the fixed net_delay hop — byte-identical to pre-network
        # behavior.
        self.link_down = None
        self.link_up = None
        self.work_split = work_split
        self.arrivals = 0
        self.completions = 0
        self.drops = 0
        # (downstream, "a->b", "b->a") net-span name cache, built on
        # first traced use so the f-strings are not re-formatted per
        # request.
        self._net_names: Optional[tuple] = None

    @property
    def concurrency(self) -> int:
        """The paper's ``Q_i``: maximum simultaneous requests in-tier."""
        return self.pool.capacity

    @property
    def occupancy(self) -> int:
        """Requests holding or waiting for this tier's pool.

        Note that with synchronous RPC a request deep in a downstream
        tier still holds this tier's thread, so occupancies are nested:
        ``occupancy_front >= occupancy_back`` always.
        """
        return self.pool.occupancy

    @property
    def admission_capacity(self) -> Optional[int]:
        """Total slots before a drop (None = blocking, never drops)."""
        if self.pool.max_queue is None:
            return None
        return self.pool.capacity + self.pool.max_queue

    @property
    def queue_length(self) -> int:
        """The paper's per-tier queue length (Figs 6b/9c).

        The number of this tier's concurrency slots in use, capped at
        the tier's admission capacity: waiters beyond the cap are
        attributed to the upstream tier they are pinned in.  Because
        occupancies are nested and each tier clips at its own Q_i, the
        tiers visibly saturate in back-to-front sequence during a
        burst — exactly the paper's cross-tier overflow picture.
        """
        cap = self.admission_capacity
        if cap is None:
            cap = self.pool.capacity
        return min(self.occupancy, cap)

    def _execute(self, work: float, trace=None) -> Generator:
        """Run ``work`` on this tier's CPU, cancelling it if aborted.

        Without the cancel, a request killed mid-service (e.g. by an
        interrupt injected into its process) would leave a ghost job
        consuming CPU capacity forever.

        When the request is traced, the slice is recorded as a
        ``service`` span annotated with the nominal work and the
        *effective speed* actually delivered (work / wall duration) —
        under a memory-contention burst this drops below the CPU's
        nominal speed even though the vCPU looks busy, which is exactly
        the paper's cross-resource signature.
        """
        cpu = self.vm.cpu
        job = cpu.execute(work)
        if trace is None:
            try:
                yield job
            except BaseException:
                if not job.triggered:
                    cpu.cancel(job)
                raise
            return
        sim = self.sim
        start = sim._now
        speed = cpu._speed
        try:
            yield job
        except BaseException:
            if job._value is _PENDING:
                cpu.cancel(job)
            trace.service_aborted(self.name, start, sim._now, work, speed)
            raise
        trace.service(self.name, start, sim._now, work, speed)

    def admit(self, request: Request) -> Optional[PoolRequest]:
        """Arrive at this tier and claim a thread, synchronously.

        Returns the pool token to hand to :meth:`serve`, or ``None``
        when the bounded backlog is full: the request is dropped, the
        drop is counted and the traced ``tier`` span is closed with
        ``error="TierOverflowError"``.  A drop raises nothing and
        schedules no event.
        """
        self.arrivals += 1
        trace = request.trace
        if trace is not None:
            trace.begin("tier", self.name, self.sim._now)
        token = self.pool.try_request()
        if token is None:
            self.drops += 1
            if trace is not None:
                trace.end_error(self.sim._now, "TierOverflowError")
        return token

    def handle(self, request: Request) -> Generator:
        """Process ``request`` in this tier (and, recursively, below).

        The raising form of :meth:`admit` + :meth:`serve`: a drop at
        admission raises :class:`TierOverflowError`.
        """
        token = self.admit(request)
        if token is None:
            raise TierOverflowError(self.name)
        yield from self.serve(request, token)

    def serve(self, request: Request, token: PoolRequest) -> Generator:
        """Run the rest of an admitted visit (and, recursively, below).

        A generator intended for ``yield from`` inside the client's
        process, entered at the instant :meth:`admit` returned
        ``token``, so the whole request path is one coroutine — exactly
        the synchronous RPC chain of the real system.  A drop further
        down the chain raises :class:`TierOverflowError` out of it.
        """
        sim = self.sim
        name = self.name
        enter = sim._now
        trace = request.trace
        try:
            try:
                yield token
                if trace is not None:
                    trace.add("queue_wait", name, enter, sim._now)
                demands = request.demands
                demand = demands.get(name, 0.0)
                downstream = self.downstream
                goes_down = (
                    downstream is not None
                    and demands.get(downstream.name, 0.0) > 0.0
                )
                pre = demand * self.work_split if goes_down else demand
                post = demand - pre
                net_delay = self.net_delay
                if pre > 0:
                    # CPU slices run inline instead of delegating into
                    # _execute: one fewer generator frame on every
                    # resume.  The traced arm mirrors _execute's span
                    # exactly.
                    cpu = self.vm.cpu
                    job = cpu.execute(pre)
                    if trace is None:
                        try:
                            yield job
                        except BaseException:
                            if job._value is _PENDING:
                                cpu.cancel(job)
                            raise
                    else:
                        start = sim._now
                        speed = cpu._speed
                        try:
                            yield job
                        except BaseException:
                            if job._value is _PENDING:
                                cpu.cancel(job)
                            trace.service_aborted(
                                name, start, sim._now, pre, speed
                            )
                            raise
                        trace.service(name, start, sim._now, pre, speed)
                if goes_down:
                    if trace is not None:
                        net_names = self._net_names
                        if (
                            net_names is None
                            or net_names[0] is not downstream
                        ):
                            net_names = self._net_names = (
                                downstream,
                                f"{name}->{downstream.name}",
                                f"{downstream.name}->{name}",
                            )
                    link = self.link_down
                    if link is not None:
                        # Routed hop: the message traverses the finite
                        # queue chain (NIC ring -> qdisc -> switch ->
                        # ring), retransmitting on drops while this
                        # tier's thread stays held.
                        yield from link.transfer(
                            trace,
                            net_names[1] if trace is not None else None,
                        )
                    elif net_delay > 0:
                        hop = sim._now
                        # A bare sleep, no Event: two hops per
                        # downstream call make this one of the hottest
                        # event sites.
                        yield net_delay
                        if trace is not None:
                            trace.add("net", net_names[1], hop, sim._now)
                    # Inline admit + serve (not handle): one generator
                    # frame per tier on every resume of the chain.
                    inner = downstream.admit(request)
                    if inner is None:
                        raise TierOverflowError(downstream.name)
                    yield from downstream.serve(request, inner)
                    link = self.link_up
                    if link is not None:
                        yield from link.transfer(
                            trace,
                            net_names[2] if trace is not None else None,
                        )
                    elif net_delay > 0:
                        hop = sim._now
                        yield net_delay
                        if trace is not None:
                            trace.add("net", net_names[2], hop, sim._now)
                if post > 0:
                    cpu = self.vm.cpu
                    job = cpu.execute(post)
                    if trace is None:
                        try:
                            yield job
                        except BaseException:
                            if job._value is _PENDING:
                                cpu.cancel(job)
                            raise
                    else:
                        start = sim._now
                        speed = cpu._speed
                        try:
                            yield job
                        except BaseException:
                            if job._value is _PENDING:
                                cpu.cancel(job)
                            trace.service_aborted(
                                name, start, sim._now, post, speed
                            )
                            raise
                        trace.service(name, start, sim._now, post, speed)
            finally:
                pool = self.pool
                if token in pool.users:
                    pool.release(token)
                else:
                    # Aborted while still waiting for a thread.
                    pool.cancel(token)
        except BaseException as exc:
            if trace is not None:
                trace.end_error(sim._now, type(exc).__name__)
            raise
        self.completions += 1
        request.record_span(name, enter, sim._now)
        if trace is not None:
            trace.end(sim._now)

    def serve_local(self, request: Request, token: PoolRequest) -> Generator:
        """Serve only this tier's demand (tandem-queue mode).

        Used by :meth:`NTierApplication.serve_tandem`, where tiers are
        independent stations with no cross-tier thread coupling;
        ``token`` comes from :meth:`admit`, as for :meth:`serve`.
        """
        enter = self.sim.now
        trace = request.trace
        try:
            try:
                yield token
                if trace is not None:
                    trace.add("queue_wait", self.name, enter, self.sim.now)
                demand = request.demand(self.name)
                if demand > 0:
                    yield from self._execute(demand, trace)
            finally:
                if token in self.pool.users:
                    self.pool.release(token)
                else:
                    self.pool.cancel(token)
        except BaseException as exc:
            if trace is not None:
                trace.end_error(self.sim.now, type(exc).__name__)
            raise
        self.completions += 1
        if trace is not None:
            trace.end(self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tier({self.name!r}, Q={self.concurrency}, "
            f"occupancy={self.occupancy})"
        )
