"""Unit tests for hypervisor profiles and cross-platform invariance."""

import pytest

from repro.experiments.fig3 import run_fig3, run_fig3_hypervisors
from repro.hardware import (
    ALL_HYPERVISORS,
    HYPERV,
    KVM,
    VMWARE,
    XEN,
    Host,
    HypervisorProfile,
    MemoryActivity,
    XEON_E5_2603_V3,
    memory_subsystem_for,
)
from tests import _claims as claims


class TestHypervisorProfile:
    def test_four_platforms_modelled(self):
        names = {p.name for p in ALL_HYPERVISORS}
        assert names == {"KVM", "Xen", "VMware vSphere", "Hyper-V"}

    def test_kvm_is_the_lightest(self):
        assert KVM.bandwidth_tax == min(
            p.bandwidth_tax for p in ALL_HYPERVISORS
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HypervisorProfile(name="bad", sharing_alpha=-0.1)
        with pytest.raises(ValueError):
            HypervisorProfile(name="bad", bandwidth_tax=1.0)


class TestMemorySubsystemFor:
    def test_applies_bandwidth_tax(self):
        host = Host("h", XEON_E5_2603_V3)
        memory_subsystem_for(host, XEN)
        expected = XEON_E5_2603_V3.mem_bandwidth_mbps * (
            1.0 - XEN.bandwidth_tax
        )
        assert host.packages[0].mem_bandwidth_mbps == pytest.approx(
            expected
        )

    def test_double_management_rejected(self):
        host = Host("h", XEON_E5_2603_V3)
        memory_subsystem_for(host, KVM)
        with pytest.raises(ValueError):
            memory_subsystem_for(host, XEN)

    def test_uses_profile_alpha(self):
        host = Host("h", XEON_E5_2603_V3)
        subsystem = memory_subsystem_for(host, XEN)
        assert subsystem.alpha == XEN.sharing_alpha

    def test_contention_still_works(self):
        host = Host("h", XEON_E5_2603_V3)
        subsystem = memory_subsystem_for(host, HYPERV)
        host.place("victim", package=0)
        host.place("locker", package=0)
        subsystem.set_activity(
            MemoryActivity("victim", demand_mbps=2000.0)
        )
        subsystem.set_activity(
            MemoryActivity("locker", demand_mbps=50.0, lock_duty=0.9)
        )
        assert subsystem.speed_factor("victim") == pytest.approx(
            0.1, abs=0.02
        )


class TestCrossPlatformInvariance:
    def test_findings_hold_on_every_hypervisor(self):
        results = run_fig3_hypervisors(max_vms=3)
        assert set(results) == {p.name for p in ALL_HYPERVISORS}
        for name, result in results.items():
            assert claims.finding1_single_attacker_insufficient(result), name
            assert claims.finding3_lock_beats_saturation(result), name

    def test_taxed_platforms_measure_less_bandwidth(self):
        kvm = run_fig3(max_vms=2, hypervisor=KVM)
        xen = run_fig3(max_vms=2, hypervisor=XEN)
        assert claims.bandwidth(
            xen, "same-package", "none", 1
        ) < claims.bandwidth(kvm, "same-package", "none", 1)
