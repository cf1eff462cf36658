"""Workload trace record and replay.

Deterministic replay of an observed arrival pattern: record the
(timestamp, page, per-tier demands) of completed requests from one run
and replay them exactly — against a different configuration, a
defended deployment, or a hardened queue sizing — so before/after
comparisons share the identical arrival sample path instead of merely
the same distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Iterable, List, Optional

from ..ntier.app import NTierApplication
from ..ntier.client import fetch
from ..ntier.request import Request
from ..ntier.tcp import DEFAULT_TCP, RetransmissionPolicy
from ..sim.core import SimulationError, Simulator

__all__ = ["TraceEntry", "record_trace", "TraceReplayGenerator"]


@dataclass(frozen=True)
class TraceEntry:
    """One arrival: when it happened, which page, what it cost."""

    time: float
    page: str
    demands: Dict[str, float]


def record_trace(requests: Iterable[Request]) -> List[TraceEntry]:
    """Extract a replayable trace from finished requests.

    Arrival time is the request's *first* transmission attempt, so a
    replay regenerates the original offered load (retransmissions are
    the system's response, not the workload's).
    """
    entries = [
        TraceEntry(
            time=r.t_first_attempt,
            page=r.page,
            demands=dict(r.demands),
        )
        for r in requests
    ]
    entries.sort(key=lambda e: e.time)
    return entries


class TraceReplayGenerator:
    """Replay a trace against an application, exactly on schedule."""

    def __init__(
        self,
        sim: Simulator,
        app: NTierApplication,
        trace: List[TraceEntry],
        tcp: RetransmissionPolicy = DEFAULT_TCP,
        time_offset: Optional[float] = None,
    ):
        """``time_offset`` shifts trace times onto the simulation
        clock; by default the first entry fires immediately."""
        if not trace:
            raise ValueError("empty trace")
        self.sim = sim
        self.app = app
        self.trace = sorted(trace, key=lambda e: e.time)
        self.tcp = tcp
        if time_offset is None:
            time_offset = sim.now - self.trace[0].time
        self.time_offset = time_offset
        self.replayed = 0
        self._proc = None

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.sim.process(self._run())

    def _run(self) -> Generator:
        for rid, entry in enumerate(self.trace):
            fire_at = entry.time + self.time_offset
            if fire_at < self.sim.now - 1e-9:
                raise SimulationError(
                    f"trace entry at {entry.time} is in the past "
                    f"(offset {self.time_offset}, now {self.sim.now})"
                )
            delay = max(0.0, fire_at - self.sim.now)
            if delay > 0:
                yield delay
            request = Request(
                rid=rid, page=entry.page, demands=dict(entry.demands)
            )
            self.replayed += 1
            self.sim.process(
                fetch(self.sim, self.app, request, tcp=self.tcp)
            )

    @property
    def finished(self) -> bool:
        return self._proc is not None and self._proc.triggered
