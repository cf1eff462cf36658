"""External DoS baselines MemCA is positioned against (Section I).

The paper's introduction contrasts its *internal* attack with the
external state of the art:

* :class:`FloodingAttack` — the traditional volumetric DoS: a sustained
  open-loop stream of requests above the system's capacity.  Effective,
  but the sustained saturation and traffic surge trip auto-scaling and
  any rate monitor.
* :class:`PulsatingAttack` — the cited "tail attacks / very short
  intermittent DDoS" (Shan et al.): millibottlenecks created from the
  *outside* by short bursts of perfectly legitimate HTTP requests.
  Stealthy against utilization monitors, but the burst is visible in
  the request stream itself.

MemCA needs neither traffic volume nor request bursts — its probe load
is negligible — which is exactly the comparison
:mod:`repro.experiments.baselines` quantifies.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

import numpy as np

from ..ntier.app import NTierApplication
from ..ntier.client import fetch
from ..ntier.request import Request
from ..ntier.tcp import RetransmissionPolicy
from ..sim.core import Simulator

__all__ = ["FloodingAttack", "PulsatingAttack"]

#: Attack traffic does not retransmit aggressively; one retry suffices
#: to keep pressure up without the attacker self-throttling.
_ATTACK_TCP = RetransmissionPolicy(max_retries=1)


class _HttpAttacker:
    """Shared machinery: inject open-loop attack requests."""

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        request_factory: Callable[[int], Request],
        rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self.app = app
        self.request_factory = request_factory
        self.rng = rng if rng is not None else np.random.default_rng()
        self.requests_sent = 0
        self._proc = None
        self._stopped = False

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.process(self._run())

    def stop(self) -> None:
        self._stopped = True

    def _send_one(self) -> None:
        request = self.request_factory(self.requests_sent)
        request.page = f"attack:{request.page}"
        self.requests_sent += 1
        self.sim.process(
            fetch(self.sim, self.app, request, tcp=_ATTACK_TCP)
        )

    def _run(self) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover


class FloodingAttack(_HttpAttacker):
    """Sustained open-loop request flood at ``rate`` req/s."""

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        request_factory: Callable[[int], Request],
        rate: float,
        rng: Optional[np.random.Generator] = None,
    ):
        if rate <= 0:
            raise ValueError(f"flood rate must be positive: {rate}")
        super().__init__(sim, app, request_factory, rng)
        self.rate = rate

    def _run(self) -> Generator:
        while not self._stopped:
            gap = float(self.rng.exponential(1.0 / self.rate))
            yield gap
            self._send_one()


class PulsatingAttack(_HttpAttacker):
    """Short bursts of legitimate requests on an ON-OFF schedule.

    During each ON window of ``length`` seconds, requests arrive at
    ``burst_rate``; between windows (every ``interval`` seconds) the
    attacker is silent.  The average extra traffic is only
    ``burst_rate * length / interval`` — modest — but each burst
    transiently saturates the bottleneck, the external analogue of a
    MemCA burst.
    """

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        request_factory: Callable[[int], Request],
        burst_rate: float,
        length: float = 0.5,
        interval: float = 2.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if burst_rate <= 0:
            raise ValueError(f"burst_rate must be positive: {burst_rate}")
        if length <= 0 or interval <= length:
            raise ValueError(
                f"need 0 < length < interval, got {length}, {interval}"
            )
        super().__init__(sim, app, request_factory, rng)
        self.burst_rate = burst_rate
        self.length = length
        self.interval = interval
        #: (start, end) of executed bursts.
        self.bursts: List[tuple] = []

    def _run(self) -> Generator:
        while not self._stopped:
            yield self.interval - self.length
            if self._stopped:
                break
            start = self.sim.now
            deadline = start + self.length
            while self.sim.now < deadline:
                gap = float(self.rng.exponential(1.0 / self.burst_rate))
                if self.sim.now + gap >= deadline:
                    yield deadline - self.sim.now
                    break
                yield gap
                self._send_one()
            self.bursts.append((start, self.sim.now))
