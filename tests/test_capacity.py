"""Tests for the capacity-validation experiment (fast variant)."""

from dataclasses import replace

import pytest

from repro.experiments import PRIVATE_CLOUD, run_capacity_validation
from repro.experiments.capacity import mva_stations_for
from repro.workload import RubbosWorkload
from tests import _claims as claims


class TestCapacityValidation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_capacity_validation(
            populations=(800, 2000), duration=25.0
        )

    def test_throughput_matches_mva(self, result):
        assert claims.capacity_within(result, 0.15)

    def test_points_cover_populations(self, result):
        assert [p.users for p in result.points] == [800, 2000]

    def test_utilization_scales_with_population(self, result):
        small, large = result.points
        assert large.measured_mysql_util > small.measured_mysql_util

    def test_knee_above_paper_population(self, result):
        assert result.knee > 3500

    def test_render_mentions_knee(self, result):
        assert "saturation knee" in result.render()


class TestMvaStations:
    def test_stations_use_workload_means(self):
        workload = RubbosWorkload()
        stations = mva_stations_for(PRIVATE_CLOUD, workload)
        by_name = {s.name: s for s in stations}
        assert by_name["mysql"].demand == pytest.approx(
            workload.mean_demand("mysql")
        )
        assert all(s.servers == 2 for s in stations)
