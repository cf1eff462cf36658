"""Adversary attack programs (Section III's two memory attacks).

Each program is a recipe for the memory activity an adversary VM
generates while the attack is ON, parameterized by an ``intensity`` in
[0, 1] — the commander's actuation knob, corresponding to the paper's
attack intensity R relative to the host's peak capacity R_max.

* :class:`MemoryBusSaturation` — a RAMspeed-style streaming kernel that
  floods the memory bus.  Its large working set sweeps the LLC, so it
  leaves the periodic LLC-miss signature of Fig 11a.
* :class:`MemoryLockAttack` — unaligned atomic operations spanning two
  cache lines, which lock the memory bus for their duration: every
  other access on the package stalls.  Far more damaging per unit of
  attacker bandwidth (Fig 3) and invisible to LLC-miss profiling
  (Fig 11b) because its working set is a few bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.memory import MemoryActivity
from ..net.fabric import NicActivity

__all__ = [
    "AttackProgram",
    "LLCCleansingAttack",
    "MemoryBusSaturation",
    "MemoryLockAttack",
    "NicSaturation",
]


class AttackProgram:
    """Base class: builds the MemoryActivity for a given intensity."""

    name = "abstract"

    def activity(self, vm_name: str, intensity: float) -> MemoryActivity:
        raise NotImplementedError

    @staticmethod
    def _check_intensity(intensity: float) -> float:
        if not 0.0 < intensity <= 1.0:
            raise ValueError(f"intensity outside (0,1]: {intensity}")
        return float(intensity)


@dataclass
class MemoryBusSaturation(AttackProgram):
    """Stream a huge buffer to saturate the bus (LLC-thrashing)."""

    stream_bandwidth_mbps: float = 20000.0
    #: A streaming buffer dwarfs the LLC, evicting everyone's lines.
    footprint_mb: float = 64.0
    name: str = "bus-saturation"

    def activity(self, vm_name: str, intensity: float) -> MemoryActivity:
        intensity = self._check_intensity(intensity)
        return MemoryActivity(
            vm_name=vm_name,
            demand_mbps=self.stream_bandwidth_mbps * intensity,
            thrashes_llc=True,
            llc_footprint_mb=self.footprint_mb * intensity,
        )


@dataclass
class LLCCleansingAttack(AttackProgram):
    """Sweep an LLC-sized buffer to evict the victim's cache lines.

    The *storage-based* memory contention of the cited prior work
    (Zhang et al.): the attacker repeatedly walks a buffer sized to the
    package LLC, so every victim access misses — without saturating the
    bus or locking it.  Weaker per burst than the lock attack, and it
    leaves the same periodic LLC-miss signature as bus saturation.
    """

    footprint_mb: float = 30.0
    #: Walking an LLC-sized buffer costs moderate bandwidth.
    stream_bandwidth_mbps: float = 4000.0
    name: str = "llc-cleansing"

    def activity(self, vm_name: str, intensity: float) -> MemoryActivity:
        intensity = self._check_intensity(intensity)
        return MemoryActivity(
            vm_name=vm_name,
            demand_mbps=self.stream_bandwidth_mbps * intensity,
            thrashes_llc=True,
            llc_footprint_mb=self.footprint_mb * intensity,
        )


@dataclass
class MemoryLockAttack(AttackProgram):
    """Unaligned atomics that lock the bus (tiny footprint, no LLC)."""

    max_lock_duty: float = 0.9
    #: The locking loop itself touches almost no memory.
    own_bandwidth_mbps: float = 50.0
    name: str = "memory-lock"

    def activity(self, vm_name: str, intensity: float) -> MemoryActivity:
        intensity = self._check_intensity(intensity)
        return MemoryActivity(
            vm_name=vm_name,
            demand_mbps=self.own_bandwidth_mbps,
            lock_duty=self.max_lock_duty * intensity,
            thrashes_llc=False,
        )


@dataclass
class NicSaturation(AttackProgram):
    """Blast the host's shared NIC rings in transient bursts.

    The network twin of :class:`MemoryBusSaturation`: a co-located VM
    pushes a line-rate packet stream (small-UDP blast / RDMA reads in
    the cited noisy-neighbor attacks) through the host NIC it shares
    with the victim tier.  While ON, the attacker's descriptors hold
    ``intensity`` of the ring slots — drop-tailing victim messages —
    and its stream consumes ``intensity`` of the ring service rate,
    stretching whatever still gets through.  The victim-side damage is
    not the microseconds of serialization but the protocol response: a
    dropped RPC message costs a full TCP RTO while the request holds
    every upstream thread, so microbursts stack across tiers exactly
    like memory millibottlenecks.

    Registered on a :class:`~repro.net.fabric.SharedNic` (same
    duck-typed surface as :class:`MemorySubsystem`), so the standard
    :class:`~repro.core.burst.OnOffAttacker` drives it unchanged.
    """

    #: Packet rate of the blast at intensity 1.0 — the ring's own line
    #: rate: one VM *can* saturate a NIC ring, unlike the memory bus.
    line_rate_pps: float = 120000.0
    name: str = "nic-saturation"

    def activity(self, vm_name: str, intensity: float) -> NicActivity:
        intensity = self._check_intensity(intensity)
        return NicActivity(
            vm_name=vm_name,
            rate_pps=self.line_rate_pps * intensity,
            ring_fill=intensity,
        )
