"""Figure 3: memory-bandwidth degradation under the two memory attacks.

Profiles per-VM attainable bandwidth as co-located VMs increase, for
both placements (same package / random package) and both attack
programs (saturating the bus / locking memory), reproducing the three
Section III findings:

1. one attacking VM does not saturate the bus on its own;
2. per-VM bandwidth decreases as co-located VMs increase (less steeply
   in the random-package case);
3. one locking VM degrades bandwidth far more than bus saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.report import format_table
from ..hardware.hypervisor import (
    ALL_HYPERVISORS,
    KVM,
    HypervisorProfile,
    memory_subsystem_for,
)
from ..hardware.memory import MemoryActivity, MemorySubsystem
from ..hardware.topology import XEON_E5_2603_V3, CpuSpec, Host
from .parallel import SweepCell, SweepExecutor, ensure_executor

__all__ = [
    "Fig3Result",
    "run_fig3",
    "measure_bandwidth_scenario",
    "run_fig3_hypervisors",
]

PLACEMENTS = ("same-package", "random-package")
ATTACKS = ("none", "saturate", "lock")


def measure_bandwidth_scenario(
    n_vms: int,
    attack: str,
    placement: str,
    spec: CpuSpec = XEON_E5_2603_V3,
    lock_duty: float = 0.9,
    hypervisor: HypervisorProfile = KVM,
) -> float:
    """Mean per-VM measured bandwidth (MB/s) for one configuration.

    ``n_vms`` co-located VMs run the RAMspeed measurement; under attack
    one additional adversary VM runs the attack program alongside them.
    """
    if n_vms < 1:
        raise ValueError(f"n_vms must be >= 1: {n_vms}")
    if attack not in ATTACKS:
        raise ValueError(f"attack must be one of {ATTACKS}: {attack!r}")
    if placement not in PLACEMENTS:
        raise ValueError(
            f"placement must be one of {PLACEMENTS}: {placement!r}"
        )
    host = Host("profiling-host", spec)
    memory = memory_subsystem_for(host, hypervisor)
    package = 0 if placement == "same-package" else None
    bandwidth = spec.mem_bandwidth_mbps

    measurers = [f"vm{i}" for i in range(n_vms)]
    for name in measurers:
        host.place(name, package=package)
        memory.set_activity(
            MemoryActivity(name, demand_mbps=bandwidth, thrashes_llc=True)
        )
    if attack != "none":
        host.place("adversary", package=package)
        if attack == "saturate":
            activity = MemoryActivity(
                "adversary", demand_mbps=bandwidth, thrashes_llc=True
            )
        else:
            activity = MemoryActivity(
                "adversary", demand_mbps=50.0, lock_duty=lock_duty
            )
        memory.set_activity(activity)
    measured = [memory.measured_bandwidth(name) for name in measurers]
    return sum(measured) / len(measured)


def bandwidth_cell(
    spec, hypervisor: str = "KVM", lock_duty: float = 0.9
) -> float:
    """Sweep-cell entry point: one (placement, attack, n, CpuSpec) point.

    The hypervisor travels by name (profiles are module constants, not
    part of the cell's content hash beyond the name).
    """
    placement, attack, n_vms, cpu = spec
    profiles = {profile.name: profile for profile in ALL_HYPERVISORS}
    return measure_bandwidth_scenario(
        n_vms,
        attack,
        placement,
        cpu,
        lock_duty=lock_duty,
        hypervisor=profiles[hypervisor],
    )


@dataclass
class Fig3Result:
    """All (placement, attack, n) -> per-VM bandwidth points."""

    spec: CpuSpec
    #: (placement, attack) -> list of (n_vms, bandwidth MB/s).
    series: Dict[Tuple[str, str], List[Tuple[int, float]]]

    def render(self) -> str:
        max_n = max(n for pts in self.series.values() for n, _ in pts)
        headers = ["placement", "attack"] + [
            f"{n} VM{'s' if n > 1 else ''}" for n in range(1, max_n + 1)
        ]
        rows = []
        for (placement, attack), points in sorted(self.series.items()):
            by_n = dict(points)
            rows.append(
                [placement, attack]
                + [by_n.get(n, float("nan")) for n in range(1, max_n + 1)]
            )
        return format_table(
            headers,
            rows,
            title=(
                f"Fig 3: per-VM measured memory bandwidth (MB/s) on "
                f"{self.spec.model}"
            ),
            float_format="{:.0f}",
        )


def run_fig3(
    spec: CpuSpec = XEON_E5_2603_V3,
    max_vms: int = 6,
    hypervisor: HypervisorProfile = KVM,
    executor: Optional[SweepExecutor] = None,
) -> Fig3Result:
    """Sweep co-located VM counts for every placement/attack combo."""
    grid = [
        (placement, attack, n)
        for placement in PLACEMENTS
        for attack in ATTACKS
        for n in range(1, max_vms + 1)
    ]
    values = ensure_executor(executor).map(
        [
            SweepCell.make(
                "bandwidth",
                (placement, attack, n, spec),
                hypervisor=hypervisor.name,
            )
            for placement, attack, n in grid
        ]
    )
    series: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for (placement, attack, n), bandwidth in zip(grid, values):
        series.setdefault((placement, attack), []).append((n, bandwidth))
    return Fig3Result(spec=spec, series=series)


def run_fig3_hypervisors(
    spec: CpuSpec = XEON_E5_2603_V3,
    max_vms: int = 4,
    executor: Optional[SweepExecutor] = None,
) -> Dict[str, Fig3Result]:
    """Section III's cross-platform check: repeat Fig 3 per hypervisor.

    The paper reports "similar results under the same memory attacks"
    for KVM, Xen, VMware, and Hyper-V; the ``fig3_hypervisors`` claim
    test asserts all three findings hold under every profile.
    """
    return {
        profile.name: run_fig3(
            spec, max_vms, hypervisor=profile, executor=executor
        )
        for profile in ALL_HYPERVISORS
    }
