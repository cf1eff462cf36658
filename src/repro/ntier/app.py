"""The assembled n-tier application and its two service disciplines.

:class:`NTierApplication` chains tiers front-to-back and records every
finished request.  Two service modes reproduce the paper's model
comparison (Figs 6 and 7):

* ``serve`` — synchronous RPC mode (the real n-tier system): the client
  coroutine runs down the tier chain holding a thread at every level.
* ``serve_tandem`` — classic tandem-queue mode: tiers are independent
  stations visited in sequence with no cross-tier thread coupling; all
  excess requests pile up at the bottleneck station only.

In tandem mode the per-tier "observed response time" is the time from
arrival at that station until the request finally completes (the suffix
time), which is why the paper's Fig 7a percentile curves for all tiers
nearly overlap when MySQL dominates.
"""

from __future__ import annotations

from typing import Generator, List

from ..obs.tracer import NULL_TRACER
from ..sim.core import Simulator
from .request import Request, RequestLog
from .tier import Tier

__all__ = ["NTierApplication"]


class NTierApplication:
    """A front-to-back chain of tiers plus request bookkeeping."""

    def __init__(self, sim: Simulator, tiers: List[Tier]):
        if not tiers:
            raise ValueError("an application needs at least one tier")
        self.sim = sim
        self.tiers = list(tiers)
        for upstream, downstream in zip(self.tiers, self.tiers[1:]):
            upstream.downstream = downstream
        #: Requests that received a response (includes retransmitted).
        self.completed = RequestLog()
        #: Requests abandoned after exhausting TCP retries.
        self.failed = RequestLog()
        #: Request tracer consulted by ``fetch`` for every entry point
        #: (closed-loop users, open-loop generators, probers).  The
        #: null singleton is the zero-overhead default; swap in a
        #: recording :class:`repro.obs.Tracer` to capture span trees.
        self.tracer = NULL_TRACER

    @property
    def front(self) -> Tier:
        return self.tiers[0]

    @property
    def back(self) -> Tier:
        return self.tiers[-1]

    def tier(self, name: str) -> Tier:
        """Look up a tier by name."""
        for t in self.tiers:
            if t.name == name:
                return t
        raise KeyError(f"no tier named {name!r}")

    def record(self, request: Request) -> None:
        """Pack a finished request into the completed or failed log."""
        if request.failed:
            self.failed.append(request)
        else:
            self.completed.append(request)

    def serve(self, request: Request) -> Generator:
        """Synchronous RPC service (``yield from`` this in a process)."""
        yield from self.front.handle(request)

    def serve_tandem(self, request: Request) -> Generator:
        """Tandem-queue service: independent stations, visited in order.

        Returns ``None`` once served, or the name of the station whose
        full backlog dropped the request (nothing is raised).
        """
        enters = []
        for tier in self.tiers:
            enters.append((tier, self.sim.now))
            if request.visits(tier.name):
                token = tier.admit(request)
                if token is None:
                    return tier.name
                yield from tier.serve_local(request, token)
        done = self.sim.now
        for tier, entered in enters:
            request.record_span(tier.name, entered, done)
        return None
