"""The timer event processes slept on before sleeps became bare delays.

:class:`Timeout` is a verbatim copy of the kernel's former sleep event:
a full :class:`~repro.sim.core.Event`, born triggered, pushed into the
timed queue at construction.  A process now sleeps by yielding its
delay, which reuses one wake entry instead.  Nothing in ``src`` uses
this class: it is the reference ``tests/test_reference_equivalence.py``
checks the wake sleep against (``tests/_reference_queues.py`` sleeps
through it).
"""

from typing import Any

from repro.sim.core import Event, SimulationError, Simulator

__all__ = ["Timeout"]


class Timeout(Event):
    """An event that triggers after a fixed delay.

    Construction is flattened (no ``super().__init__`` chain): a timeout
    is born triggered-but-unprocessed and goes straight into the
    calendar wheel.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        sim._push_timed(sim._now + delay, self)
