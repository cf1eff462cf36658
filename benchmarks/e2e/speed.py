"""Host speed meter: a fixed reference kernel timed beside the simulation.

On a shared VM the same Python code runs at speeds up to ~1.8x apart,
and the speed switches within seconds as other tenants load the
physical host; user and system CPU time slow down with the wall, so
neither is a steady measure by itself.  The meter times a small fixed
pure-Python kernel — generators, a heap, a dict, like the simulator's
own dispatch — on the simulation's own thread, every ``PERIOD`` seconds
of a run, from the kernel event hook the run already carries.  A sample
multiplies its host times by the measured speed (``REFERENCE_S`` over
the kernel's time, averaged), so each reads as seconds at the
reference speed.

The kernel is part of the benchmark, not of the simulator: no change
to ``src/`` can make it faster or slower.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, List

perf = time.perf_counter

#: The kernel's time at full speed on the box the baselines were
#: recorded on (Intel Xeon vCPU, Python 3.11): the unit of every
#: rescaled time.  A constant, so it only scales the numbers.
REFERENCE_S = 0.0005

#: Seconds between two kernel timings during a run (~2-3% of the run).
PERIOD = 0.04


def kernel() -> int:
    """Fixed pure-Python work shaped like event dispatch."""

    def proc(k: int):
        x = k
        while True:
            x = (x * 1103515245 + 12345) & 0xFFFF
            yield x

    gens = [proc(k) for k in range(16)]
    heap: List[tuple] = []
    counts: dict = {}
    t = 0.0
    for i in range(800):
        value = next(gens[i & 15])
        heapq.heappush(heap, (t + value * 1e-4, i, i & 15))
        if len(heap) > 64:
            t, _, k = heapq.heappop(heap)
            counts[k] = counts.get(k, 0) + 1
    return len(counts)


def measure() -> float:
    """One timed kernel run, after one untimed run warms the caches."""
    kernel()
    start = perf()
    kernel()
    return perf() - start


def relative_speed(timings: List[float]) -> float:
    """Mean host speed over kernel timings, as a share of the reference.

    Averaging speeds rather than times keeps one preempted timing from
    outweighing the rest.
    """
    return sum(REFERENCE_S / t for t in timings) / len(timings)


class Meter:
    """Kernel timings taken from a simulator's event hook."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._next = 0.0

    def attach(self, hooks: Any) -> None:
        """Time the kernel from ``hooks.on_events`` every ``PERIOD`` s.

        The simulator calls ``on_events`` on its dispatch thread once
        per few hundred events, so the kernel runs on the same CPU as
        the simulation it calibrates.
        """
        on_events = hooks.on_events
        if getattr(on_events, "metered", False):
            return

        def metered(count: int, now: float, pending: int) -> None:
            on_events(count, now, pending)
            if perf() >= self._next:
                self.samples.append(measure())
                self._next = perf() + PERIOD

        metered.metered = True
        hooks.on_events = metered
