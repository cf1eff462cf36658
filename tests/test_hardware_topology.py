"""Unit tests for host topology and VM placement."""

import pytest

from repro.hardware import (
    EC2_E5_2680,
    Host,
    XEON_E5_2603_V3,
)


class TestCpuSpec:
    def test_paper_host_dimensions(self):
        assert XEON_E5_2603_V3.packages == 2
        assert XEON_E5_2603_V3.cores_per_package == 6
        assert XEON_E5_2603_V3.llc_mb_per_package == 15.0

    def test_ec2_host_dimensions(self):
        assert EC2_E5_2680.packages * EC2_E5_2680.cores_per_package == 20


class TestHost:
    def test_packages_expanded_from_spec(self):
        host = Host("h", XEON_E5_2603_V3)
        assert len(host.packages) == 2
        assert all(p.cores == 6 for p in host.packages)

    def test_place_pinned(self):
        host = Host("h")
        host.place("vm1", package=0)
        assert host.placements["vm1"] == 0
        assert "vm1" in host.packages[0].pinned_vms

    def test_place_floating(self):
        host = Host("h")
        host.place("vm1", package=None)
        assert host.placements["vm1"] is None

    def test_place_invalid_package(self):
        host = Host("h")
        with pytest.raises(ValueError):
            host.place("vm1", package=9)

    def test_vm_names(self):
        host = Host("h")
        host.place("a", package=0)
        host.place("b", package=1)
        assert host.vm_names == ["a", "b"]
