"""Workload generation: RUBBoS-like page mix and open-loop streams."""

from .distributions import (
    BoundedPareto,
    DemandDistribution,
    Deterministic,
    Exponential,
    LogNormal,
)
from .generator import OpenLoopGenerator, exponential_request_factory
from .trace import TraceEntry, TraceReplayGenerator, record_trace
from .rubbos import (
    RUBBOS_PAGES,
    RUBBOS_TRANSITIONS,
    PageClass,
    RubbosWorkload,
)

__all__ = [
    "BoundedPareto",
    "DemandDistribution",
    "Deterministic",
    "Exponential",
    "LogNormal",
    "OpenLoopGenerator",
    "PageClass",
    "RUBBOS_PAGES",
    "RUBBOS_TRANSITIONS",
    "RubbosWorkload",
    "TraceEntry",
    "TraceReplayGenerator",
    "exponential_request_factory",
    "record_trace",
]
