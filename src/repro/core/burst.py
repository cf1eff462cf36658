"""The ON-OFF burst engine (Fig 4): MemCA's attack rhythm.

:class:`OnOffAttacker` runs as a simulation process inside an adversary
VM: every interval ``I`` it turns the attack program ON for length
``L`` at the current intensity, then OFF.  All three parameters are
mutable at runtime — the commander (Section IV-C) retunes them between
bursts — and every executed burst is logged with its actual start/end,
which doubles as MemCA-FE's execution-time-based millibottleneck
estimate (the attacker-side stealthiness proxy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Union

import numpy as np

from ..hardware.memory import MemorySubsystem
from ..sim.core import Simulator
from .programs import AttackProgram

__all__ = ["BurstRecord", "OnOffAttacker"]


@dataclass(frozen=True)
class BurstRecord:
    """One executed burst: timing plus the parameters it used."""

    start: float
    end: float
    intensity: float

    @property
    def length(self) -> float:
        return self.end - self.start


class OnOffAttacker:
    """Intermittent attack bursts from one adversary VM."""

    def __init__(
        self,
        sim: Simulator,
        memory: MemorySubsystem,
        vm_name: Union[str, Sequence[str]],
        program: AttackProgram,
        length: float = 0.5,
        interval: float = 2.0,
        intensity: float = 1.0,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if length <= 0:
            raise ValueError(f"burst length must be positive: {length}")
        if interval <= length:
            raise ValueError(
                f"interval {interval} must exceed burst length {length}"
            )
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter outside [0,1): {jitter}")
        self.sim = sim
        self.memory = memory
        # One attacker may drive several co-located adversary VMs in
        # lock-step (Fig 11a launches bus saturation "in co-located
        # VMs", plural — a single saturating VM cannot hurt the victim,
        # Section III finding 1).
        if isinstance(vm_name, str):
            self.vm_names: List[str] = [vm_name]
        else:
            self.vm_names = list(vm_name)
        if not self.vm_names:
            raise ValueError("at least one adversary VM name required")
        self.program = program
        self.length = length
        self.interval = interval
        self.intensity = intensity
        #: Relative uniform jitter on the OFF period (0 = strict phase).
        self.jitter = jitter
        self.rng = rng if rng is not None else np.random.default_rng()
        self.bursts: List[BurstRecord] = []
        self._proc = None
        self._stopped = False
        self._on = False

    @property
    def vm_name(self) -> str:
        """The (first) adversary VM name."""
        return self.vm_names[0]

    def start(self) -> None:
        """Begin the ON-OFF cycle (idempotent)."""
        if self._proc is None:
            self._stopped = False
            self._proc = self.sim.process(self._run())

    def stop(self) -> None:
        """Stop after the current burst completes (or immediately if OFF)."""
        self._stopped = True

    def retarget(self, memory: MemorySubsystem) -> None:
        """Follow a migrated victim to its new host.

        If a burst is currently ON, its activity is moved to the new
        memory subsystem immediately (the adversary VMs were
        re-co-located mid-burst).
        """
        if memory is self.memory:
            return
        old = self.memory
        self.memory = memory
        if self._on:
            for name in self.vm_names:
                old.clear_activity(name)
                self.memory.set_activity(
                    self.program.activity(name, self.intensity)
                )

    def _run(self) -> Generator:
        while not self._stopped:
            off_time = max(0.0, self.interval - self.length)
            if self.jitter > 0 and off_time > 0:
                factor = 1.0 + float(
                    self.rng.uniform(-self.jitter, self.jitter)
                )
                off_time *= factor
            yield off_time
            if self._stopped:
                break
            burst_start = self.sim.now
            intensity = self.intensity
            for name in self.vm_names:
                self.memory.set_activity(
                    self.program.activity(name, intensity)
                )
            self._on = True
            try:
                yield self.length
            finally:
                self._on = False
                # self.memory may have changed mid-burst (retarget);
                # the activity travels with it, so clearing the current
                # subsystem is always right.
                for name in self.vm_names:
                    self.memory.clear_activity(name)
            self.bursts.append(
                BurstRecord(
                    start=burst_start, end=self.sim.now, intensity=intensity
                )
            )
        self._proc = None

    # -- MemCA-FE reporting -------------------------------------------------

    def bursts_since(self, t: float) -> List[BurstRecord]:
        return [b for b in self.bursts if b.start >= t]

    def mean_execution_time(self, since: float = 0.0) -> Optional[float]:
        """Mean ON time of recent bursts — the FE millibottleneck proxy.

        Conservative: the true millibottleneck extends into fade-off
        (Eq. 10), but the FE can only observe its own execution time.
        """
        recent = self.bursts_since(since)
        if not recent:
            return None
        return sum(b.length for b in recent) / len(recent)

    @property
    def duty_cycle(self) -> float:
        """Current ON fraction L / I."""
        return self.length / self.interval
