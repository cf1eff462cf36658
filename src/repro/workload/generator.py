"""Open-loop workload drivers for the queueing-model experiments.

The paper's JMT-style analysis (Figs 6 and 7) feeds the 3-tier network
with a Poisson arrival stream of rate ``lambda`` and exponential service
at each tier.  :class:`OpenLoopGenerator` reproduces that: it spawns an
independent ``fetch`` process per arrival, so blocked/slow requests do
not throttle the arrival process (unlike the closed-loop RUBBoS users).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

import numpy as np

from ..ntier.app import NTierApplication
from ..ntier.client import fetch
from ..ntier.request import Request
from ..ntier.tcp import DEFAULT_TCP, RetransmissionPolicy
from ..sim.core import Simulator

__all__ = ["OpenLoopGenerator", "exponential_request_factory"]


def exponential_request_factory(
    demand_means: dict,
    rng: np.random.Generator,
    page: str = "model",
) -> Callable[[int], Request]:
    """Request factory with exponential per-tier demands.

    ``demand_means`` maps tier name to mean CPU demand in seconds —
    i.e. the reciprocal per-thread service rates of the queueing model.
    """
    for tier, mean in demand_means.items():
        if mean <= 0:
            raise ValueError(f"demand mean for {tier!r} must be > 0: {mean}")

    def factory(rid: int) -> Request:
        demands = {
            tier: float(rng.exponential(mean))
            for tier, mean in demand_means.items()
        }
        return Request(rid=rid, page=page, demands=demands)

    return factory


class OpenLoopGenerator:
    """Poisson arrivals, one independent request process per arrival."""

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        request_factory: Callable[[int], Request],
        rate: float,
        rng: Optional[np.random.Generator] = None,
        tcp: RetransmissionPolicy = DEFAULT_TCP,
        tandem: bool = False,
    ):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive: {rate}")
        self.sim = sim
        self.app = app
        self.request_factory = request_factory
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng()
        self.tcp = tcp
        self.tandem = tandem
        self.arrivals = 0
        self._proc = None

    def start(self) -> None:
        """Begin generating arrivals (idempotent)."""
        if self._proc is None:
            self._proc = self.sim.process(self._run())

    def _run(self) -> Generator:
        while True:
            gap = float(self.rng.exponential(1.0 / self.rate))
            yield gap
            request = self.request_factory(self.arrivals)
            self.arrivals += 1
            self.sim.process(
                fetch(
                    self.sim,
                    self.app,
                    request,
                    tcp=self.tcp,
                    tandem=self.tandem,
                )
            )
