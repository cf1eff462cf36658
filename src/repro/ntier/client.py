"""Clients: the TCP fetch loop, closed-loop users, and open-loop probes.

``fetch`` implements the client-side request path the paper's damage
analysis depends on: when the front tier's accept queue overflows the
attempt is dropped and retried after the TCP retransmission timeout
(minimum 1 s, exponential backoff), so every drop adds at least one
second to the client-perceived response time.  A front-tier drop is
the ``None`` that :meth:`Tier.admit` returns, handled inline; only a
drop after the attempt has yielded (inner tier, network hop, remote
shard) arrives as a :class:`TierOverflowError`.  Both take the same
drop tail: record the drop tier, close the traced attempt, wait the
RTO.

:class:`ClosedLoopClient` models one RUBBoS user — think, request,
repeat — and :class:`UserPopulation` spawns N of them with staggered
starts.  :class:`OpenLoopProber` is the lightweight HTTP prober used by
MemCA-BE (Section IV-C) to observe the victim's percentile response
time from outside.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

import numpy as np

from ..sim.core import Simulator
from .app import NTierApplication
from .request import Request
from .tcp import DEFAULT_TCP, RetransmissionPolicy
from .tier import TierOverflowError

__all__ = ["fetch", "ClosedLoopClient", "UserPopulation", "OpenLoopProber"]

#: Interned per-attempt span names ("attempt-1", "rto-1", ...) so the
#: traced fast path does not re-format an f-string per transmission.
_ATTEMPT_NAMES: dict = {}
_RTO_NAMES: dict = {}


def _attempt_name(n: int) -> str:
    name = _ATTEMPT_NAMES.get(n)
    if name is None:
        name = _ATTEMPT_NAMES[n] = f"attempt-{n}"
    return name


def _rto_name(n: int) -> str:
    name = _RTO_NAMES.get(n)
    if name is None:
        name = _RTO_NAMES[n] = f"rto-{n}"
    return name


def fetch(
    sim: Simulator,
    app: NTierApplication,
    request: Request,
    tcp: RetransmissionPolicy = DEFAULT_TCP,
    tandem: bool = False,
) -> Generator:
    """Issue one request with TCP retransmission on front-tier drops.

    A generator meant for ``yield from`` inside a client process.  On
    return, the request is recorded in the application (completed or
    failed) and carries its timing data.

    When the application carries a recording tracer (``app.tracer``,
    see :mod:`repro.obs`), the whole exchange is captured as a span
    tree: a ``request`` root, one ``attempt`` span per transmission,
    and an ``rto_wait`` span for every retransmission backoff.
    """
    request.t_first_attempt = sim._now
    tracer = app.tracer
    trace = tracer.begin_trace(request) if tracer.enabled else None
    if trace is not None:
        trace.begin("request", request.page, sim._now)
    # Front-tier admission is synchronous: a drop there comes back as
    # None, with no exception and no generator.  Calling the tier
    # directly (not app.serve) also keeps one generator frame out of
    # the yield-from chain every event delivery has to traverse.
    front = app.front
    drops = 0
    while True:
        request.attempts += 1
        request.attempt_times.append(sim._now)
        if trace is not None:
            trace.begin("attempt", _attempt_name(request.attempts), sim._now)
        if tandem:
            drop_tier = yield from app.serve_tandem(request)
        else:
            token = front.admit(request)
            if token is None:
                drop_tier = front.name
            else:
                try:
                    yield from front.serve(request, token)
                    drop_tier = None
                except TierOverflowError as overflow:
                    # Dropped after a yield: a bounded inner backlog,
                    # a routed network hop, or a remote shard.
                    drop_tier = overflow.tier
        if drop_tier is None:
            request.t_done = now = sim._now
            if trace is not None:
                trace.end(now)
                trace.end_status(now, "ok", request.attempts)
                tracer.finish(request)
            app.record(request)
            return request
        request.drop_tiers.append(drop_tier)
        if trace is not None:
            trace.end_dropped(sim._now, drop_tier)
            tracer.dropped(request, drop_tier)
        schedule = tcp.schedule
        if drops == len(schedule):
            request.failed = True
            request.t_done = now = sim._now
            if trace is not None:
                trace.end_status(now, "failed", request.attempts)
                tracer.finish(request)
            app.record(request)
            return request
        rto = schedule[drops]
        drops += 1
        backoff_start = sim._now
        yield rto
        if trace is not None:
            trace.backoff(
                "rto_wait",
                _rto_name(request.attempts),
                backoff_start,
                sim._now,
                rto,
            )


class ClosedLoopClient:
    """One closed-loop user: think (exponential), request, repeat.

    ``request_factory(rid)`` returns the next request with its sampled
    demands.  Between requests the user holds nothing of the last
    one: once :func:`fetch` returns, the request lives on only in the
    application's log.
    """

    __slots__ = (
        "sim",
        "app",
        "request_factory",
        "think_time",
        "rng",
        "tcp",
        "tandem",
        "requests_sent",
    )

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        request_factory: Callable[[int], Request],
        think_time: float = 7.0,
        rng: Optional[np.random.Generator] = None,
        tcp: RetransmissionPolicy = DEFAULT_TCP,
        tandem: bool = False,
    ):
        if think_time < 0:
            raise ValueError(f"negative think_time: {think_time}")
        self.sim = sim
        self.app = app
        self.request_factory = request_factory
        self.think_time = think_time
        self.rng = rng if rng is not None else np.random.default_rng()
        self.tcp = tcp
        self.tandem = tandem
        self.requests_sent = 0

    def run(self, start_delay: float = 0.0) -> Generator:
        """The user's endless session loop (run as a process)."""
        sim = self.sim
        if start_delay > 0:
            yield start_delay
        app = self.app
        factory = self.request_factory
        tcp = self.tcp
        tandem = self.tandem
        rng = self.rng
        think_time = self.think_time
        while True:
            rid = self.requests_sent
            self.requests_sent = rid + 1
            # No local keeps the request: through the think time only
            # the log's pending batch holds it, so packing frees it.
            yield from fetch(sim, app, factory(rid), tcp=tcp, tandem=tandem)
            yield float(rng.exponential(think_time))


def _weighted(
    factory: Callable[[int], Request], weight: float
) -> Callable[[int], Request]:
    """Wrap ``factory`` to stamp the population weight on each request.

    The wrapper touches no RNG, so the draw sequence is identical to
    the unweighted factory's.
    """

    def weighted_factory(rid: int) -> Request:
        request = factory(rid)
        request.weight = weight
        return request

    return weighted_factory


class UserPopulation:
    """N closed-loop users with starts staggered over one think time.

    Staggering avoids the artificial synchronized first-arrival burst a
    simultaneous start would create.
    """

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        request_factory: Callable[[int], Request],
        users: int,
        think_time: float = 7.0,
        rng: Optional[np.random.Generator] = None,
        tcp: RetransmissionPolicy = DEFAULT_TCP,
        tandem: bool = False,
        weight: float = 1.0,
    ):
        """Every user draws its requests from the shared
        ``request_factory``.

        ``weight`` is the population scale weight stamped on every
        request (hybrid fluid/DES runs sample ``users`` discrete users
        out of a larger population; each stands for ``weight`` real
        users).  The default 1.0 leaves factories unwrapped — the
        pre-hybrid code path, byte-identical results."""
        if users < 1:
            raise ValueError(f"users must be >= 1, got {users}")
        if request_factory is None:
            raise ValueError("provide request_factory")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.sim = sim
        self.users = users
        self.weight = float(weight)
        self.rng = rng if rng is not None else np.random.default_rng()
        if weight != 1.0:
            request_factory = _weighted(request_factory, self.weight)
        self.clients = [
            ClosedLoopClient(
                sim,
                app,
                request_factory,
                think_time=think_time,
                rng=self.rng,
                tcp=tcp,
                tandem=tandem,
            )
            for _ in range(users)
        ]
        self._started = False

    def start(self) -> None:
        """Spawn every user process (idempotent)."""
        if self._started:
            return
        self._started = True
        think = self.clients[0].think_time or 1.0
        # One vectorized draw for the whole population: consumes the
        # same uniforms in the same order as per-client scalar draws
        # (so fixed-seed results are unchanged) but starts 10k+ users
        # without 10k round-trips into numpy.
        delays = self.rng.uniform(0.0, think, size=len(self.clients))
        for client, delay in zip(self.clients, delays):
            self.sim.process(client.run(start_delay=float(delay)))

    @property
    def total_requests_sent(self) -> int:
        return sum(c.requests_sent for c in self.clients)


class OpenLoopProber:
    """MemCA-BE's prober: low-rate Poisson probes with own bookkeeping.

    Probes traverse the full tier chain like ordinary requests but are
    recorded separately so the attacker's controller can compute
    percentile response time without access to victim-side telemetry.
    """

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        request_factory: Callable[[int], Request],
        rate: float = 2.0,
        rng: Optional[np.random.Generator] = None,
        tcp: RetransmissionPolicy = DEFAULT_TCP,
    ):
        if rate <= 0:
            raise ValueError(f"probe rate must be positive: {rate}")
        self.sim = sim
        self.app = app
        self.request_factory = request_factory
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng()
        self.tcp = tcp
        #: (send time, response time or None-if-failed) per probe.
        self.samples: List[tuple] = []
        self._proc = None

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.process(self._run())

    def _run(self) -> Generator:
        probe_id = 0
        while True:
            gap = float(self.rng.exponential(1.0 / self.rate))
            yield gap
            request = self.request_factory(probe_id)
            probe_id += 1
            self.sim.process(self._probe_once(request))

    def _probe_once(self, request: Request) -> Generator:
        sent = self.sim.now
        yield from fetch(self.sim, self.app, request, tcp=self.tcp)
        rt = None if request.failed else request.response_time
        self.samples.append((sent, rt))

    def samples_since(self, t: float) -> List[float]:
        """Successful probe response times sent at or after ``t``."""
        return [rt for sent, rt in self.samples if sent >= t and rt is not None]
