"""Physical host topology: packages, cores, and host presets.

Models Figure 1 of the paper: a multi-socket Intel Xeon host where each
*package* bundles cores, a last-level cache, and a memory controller.
L1/L2 caches are core-private and vCPUs are isolated by the hypervisor;
LLC and memory bandwidth are shared by all VMs whose vCPUs land on the
package — the sharing the MemCA attack exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["CpuSpec", "Package", "Host", "XEON_E5_2603_V3", "EC2_E5_2680"]


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a host CPU.

    ``mem_bandwidth_mbps`` is the peak memory bandwidth *per package* in
    MB/s (what a single RAMspeed stream can reach with no contention).
    """

    model: str
    packages: int
    cores_per_package: int
    frequency_ghz: float
    llc_mb_per_package: float
    mem_bandwidth_mbps: float


#: The paper's private-cloud profiling host (Section III).
XEON_E5_2603_V3 = CpuSpec(
    model="Intel Xeon E5-2603 v3",
    packages=2,
    cores_per_package=6,
    frequency_ghz=1.6,
    llc_mb_per_package=15.0,
    mem_bandwidth_mbps=20000.0,
)

#: The paper's EC2 dedicated host (Section V-A).
EC2_E5_2680 = CpuSpec(
    model="Intel Xeon E5-2680 (EC2 dedicated)",
    packages=2,
    cores_per_package=10,
    frequency_ghz=2.8,
    llc_mb_per_package=25.0,
    mem_bandwidth_mbps=25000.0,
)


@dataclass
class Package:
    """One processor package (socket) of a host."""

    index: int
    cores: int
    llc_mb: float
    mem_bandwidth_mbps: float
    #: Names of VMs pinned to this package.
    pinned_vms: List[str] = field(default_factory=list)


class Host:
    """A physical machine: a CPU spec expanded into packages.

    The host itself is passive; dynamic contention arithmetic lives in
    :class:`repro.hardware.memory.MemorySubsystem`, which is created per
    host.
    """

    def __init__(self, name: str, spec: CpuSpec = XEON_E5_2603_V3):
        self.name = name
        self.spec = spec
        self.packages = [
            Package(
                index=i,
                cores=spec.cores_per_package,
                llc_mb=spec.llc_mb_per_package,
                mem_bandwidth_mbps=spec.mem_bandwidth_mbps,
            )
            for i in range(spec.packages)
        ]
        #: VM name -> placement ("floating" or a package index).
        self.placements: Dict[str, Optional[int]] = {}

    def place(self, vm_name: str, package: Optional[int] = None) -> None:
        """Register a VM on this host.

        ``package=None`` means the VM's vCPUs float over all packages
        (the common cloud practice the paper's "random package" scenario
        models); an integer pins the VM to that package.
        """
        if package is not None:
            if not 0 <= package < len(self.packages):
                raise ValueError(
                    f"host {self.name} has no package {package}"
                )
            self.packages[package].pinned_vms.append(vm_name)
        self.placements[vm_name] = package

    def remove(self, vm_name: str) -> None:
        """Deregister a VM (live migration away from this host)."""
        placement = self.placements.pop(vm_name, None)
        if placement is not None:
            try:
                self.packages[placement].pinned_vms.remove(vm_name)
            except ValueError:
                pass

    @property
    def vm_names(self) -> List[str]:
        return list(self.placements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r}, {self.spec.model}, vms={self.vm_names})"
