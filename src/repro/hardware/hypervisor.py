"""Hypervisor profiles (Section III's cross-platform check).

The paper repeats its memory-attack measurements under KVM, Xen, VMware
vSphere, and Hyper-V and "gets similar results": none of the
software-based VMMs isolates the shared on-chip memory resources, so
the contention arithmetic is hypervisor-independent up to second-order
overheads.  We model those second-order differences as (a) a slightly
different bank-conflict coefficient (memory-scheduler behaviour under
the VMM's vCPU multiplexing) and (b) a small virtualization tax on peak
attainable bandwidth (nested paging / EPT walk overheads).
"""

from __future__ import annotations

from dataclasses import dataclass

from .memory import MemorySubsystem
from .topology import Host

__all__ = [
    "HypervisorProfile",
    "KVM",
    "XEN",
    "VMWARE",
    "HYPERV",
    "ALL_HYPERVISORS",
    "memory_subsystem_for",
]


@dataclass(frozen=True)
class HypervisorProfile:
    """Second-order memory behaviour of one VMM.

    ``sharing_alpha`` — bank-conflict coefficient for the sub-linear
    bandwidth-sharing curve (see :class:`MemorySubsystem`).
    ``bandwidth_tax`` — fraction of peak bandwidth lost to
    virtualization overhead.
    """

    name: str
    sharing_alpha: float = 0.08
    bandwidth_tax: float = 0.0

    def __post_init__(self) -> None:
        if self.sharing_alpha < 0:
            raise ValueError(f"negative sharing_alpha: {self.sharing_alpha}")
        if not 0.0 <= self.bandwidth_tax < 1.0:
            raise ValueError(
                f"bandwidth_tax outside [0,1): {self.bandwidth_tax}"
            )


KVM = HypervisorProfile(name="KVM", sharing_alpha=0.08,
                        bandwidth_tax=0.02)
XEN = HypervisorProfile(name="Xen", sharing_alpha=0.10,
                        bandwidth_tax=0.04)
VMWARE = HypervisorProfile(name="VMware vSphere", sharing_alpha=0.09,
                           bandwidth_tax=0.03)
HYPERV = HypervisorProfile(name="Hyper-V", sharing_alpha=0.095,
                           bandwidth_tax=0.035)

ALL_HYPERVISORS = (KVM, XEN, VMWARE, HYPERV)


def memory_subsystem_for(
    host: Host, hypervisor: HypervisorProfile = KVM
) -> MemorySubsystem:
    """A host's memory subsystem as managed by a given hypervisor.

    The bandwidth tax is applied by scaling each package's attainable
    bandwidth; the sharing curve uses the VMM's coefficient.  The
    qualitative attack behaviour (Fig 3's shapes, the lock > saturation
    ordering) must survive any of these profiles — that is exactly
    what the cross-hypervisor claim test asserts.
    """
    if getattr(host, "_hypervisor", None) is not None:
        raise ValueError(
            f"host {host.name!r} already managed by "
            f"{host._hypervisor.name}"  # type: ignore[attr-defined]
        )
    host._hypervisor = hypervisor  # type: ignore[attr-defined]
    subsystem = MemorySubsystem(host, alpha=hypervisor.sharing_alpha)
    for package in host.packages:
        package.mem_bandwidth_mbps *= 1.0 - hypervisor.bandwidth_tax
    return subsystem
