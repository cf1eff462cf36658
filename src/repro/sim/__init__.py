"""Discrete-event simulation kernel and the models built directly on it.

Events and the generator processes that wait on them or sleep
(:mod:`.core`), bounded
resource pools (:mod:`.resources`), the processor-sharing CPU
(:mod:`.psserver`), the fluid bulk of a hybrid run (:mod:`.hybrid`),
named random streams (:mod:`.rng`) and the sharded kernel
(:mod:`.sharded`).  This subpackage is the
substrate everything else runs on.  It plays the
role that the physical testbed and the JMT simulator play in the paper.
"""

from .core import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    StopSimulation,
)
from .hybrid import FluidEngine, FluidTier, FluidWindow, HybridConfig
from .psserver import ProcessorSharingServer
from .resources import CapacityError, Request, Resource
from .rng import RandomStreams

__all__ = [
    "CapacityError",
    "Event",
    "FluidEngine",
    "FluidTier",
    "FluidWindow",
    "HybridConfig",
    "Interrupt",
    "Process",
    "ProcessorSharingServer",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "StopSimulation",
]
