"""MemCA-FE: the attack executor inside the adversary VMs (Fig 8).

The frontend owns the ON-OFF attackers, actuates parameter changes
ordered by the commander, and reports what an adversary VM can observe
locally: burst execution times (its conservative millibottleneck
estimate) and the shared-resource consumption it measures on its side
of the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.core import Simulator
from .burst import OnOffAttacker

__all__ = ["FrontendReport", "MemCAFrontend"]


@dataclass(frozen=True)
class FrontendReport:
    """What MemCA-FE can tell the commander after recent bursts."""

    bursts: int
    mean_execution_time: Optional[float]
    intensity: float
    length: float
    interval: float


class MemCAFrontend:
    """Controls one or more adversary-VM attackers as a unit."""

    def __init__(self, sim: Simulator, attackers: List[OnOffAttacker]):
        if not attackers:
            raise ValueError("frontend needs at least one attacker")
        self.sim = sim
        self.attackers = list(attackers)

    def start(self) -> None:
        for attacker in self.attackers:
            attacker.start()

    def stop(self) -> None:
        for attacker in self.attackers:
            attacker.stop()

    # -- actuation (commander -> FE) -----------------------------------

    def set_parameters(
        self,
        length: Optional[float] = None,
        interval: Optional[float] = None,
        intensity: Optional[float] = None,
    ) -> None:
        """Retune every attacker; takes effect from the next burst."""
        for attacker in self.attackers:
            new_length = length if length is not None else attacker.length
            new_interval = (
                interval if interval is not None else attacker.interval
            )
            if new_interval <= new_length:
                raise ValueError(
                    f"interval {new_interval} must exceed length {new_length}"
                )
            attacker.length = new_length
            attacker.interval = new_interval
            if intensity is not None:
                if not 0.0 < intensity <= 1.0:
                    raise ValueError(f"intensity outside (0,1]: {intensity}")
                attacker.intensity = intensity

    # -- reporting (FE -> commander) -------------------------------------

    def report(self, since: float = 0.0) -> FrontendReport:
        primary = self.attackers[0]
        bursts = sum(len(a.bursts_since(since)) for a in self.attackers)
        return FrontendReport(
            bursts=bursts,
            mean_execution_time=primary.mean_execution_time(since),
            intensity=primary.intensity,
            length=primary.length,
            interval=primary.interval,
        )
