"""Unit tests for mean value analysis (closed-network baseline)."""

import pytest

from repro.model import MvaResult, Station, mva, saturation_population


def rubbos_stations():
    return [
        Station("apache", 0.00045, servers=2),
        Station("tomcat", 0.0011, servers=2),
        Station("mysql", 0.00235, servers=2),
    ]


class TestMvaBasics:
    def test_single_user_no_think_time(self):
        stations = [Station("s", 0.1)]
        result = mva(stations, population=1, think_time=0.0)
        assert result.throughput == pytest.approx(10.0)
        assert result.response_time == pytest.approx(0.1)

    def test_single_user_with_think_time(self):
        stations = [Station("s", 0.1)]
        result = mva(stations, population=1, think_time=0.9)
        assert result.throughput == pytest.approx(1.0)

    def test_interactive_response_time_law(self):
        # R = N/X - Z must hold at every population.
        stations = rubbos_stations()
        for n in (10, 500, 3000, 7000):
            result = mva(stations, n, think_time=7.0)
            assert result.response_time == pytest.approx(
                n / result.throughput - 7.0, rel=1e-6
            )

    def test_throughput_monotone_in_population(self):
        stations = rubbos_stations()
        throughputs = [
            mva(stations, n, 7.0).throughput for n in (100, 1000, 3000, 8000)
        ]
        assert throughputs == sorted(throughputs)

    def test_throughput_bounded_by_bottleneck(self):
        stations = rubbos_stations()
        capacity = 2 / 0.00235  # mysql servers / demand
        result = mva(stations, 20000, 7.0)
        assert result.throughput <= capacity * 1.001

    def test_bottleneck_identified(self):
        result = mva(rubbos_stations(), 3000, 7.0)
        assert result.bottleneck == "mysql"

    def test_light_load_linear_scaling(self):
        stations = rubbos_stations()
        one = mva(stations, 100, 7.0)
        two = mva(stations, 200, 7.0)
        assert two.throughput == pytest.approx(
            2 * one.throughput, rel=0.01
        )

    def test_utilization_in_unit_interval(self):
        for n in (10, 3000, 50000):
            result = mva(rubbos_stations(), n, 7.0)
            for value in result.utilizations.values():
                assert 0.0 <= value <= 1.0

    def test_queue_lengths_grow_at_bottleneck(self):
        low = mva(rubbos_stations(), 2000, 7.0)
        high = mva(rubbos_stations(), 9000, 7.0)
        assert high.queue_lengths["mysql"] > 10 * low.queue_lengths["mysql"]

    def test_validation(self):
        with pytest.raises(ValueError):
            mva([], 10, 1.0)
        with pytest.raises(ValueError):
            mva(rubbos_stations(), -1, 1.0)
        with pytest.raises(ValueError):
            mva(rubbos_stations(), 10, -1.0)
        with pytest.raises(ValueError):
            Station("bad", -1.0)
        with pytest.raises(ValueError):
            Station("bad", 1.0, servers=0)


class TestMvaEdgeCases:
    def test_zero_population_is_the_empty_network_base_case(self):
        result = mva(rubbos_stations(), population=0, think_time=7.0)
        assert result.throughput == 0.0
        assert all(q == 0.0 for q in result.queue_lengths.values())
        assert all(u == 0.0 for u in result.utilizations.values())
        # Response time at N=0 is the no-load R_0: the sum of raw
        # demands (Seidmann splits each demand into D/m + D(m-1)/m).
        r0 = sum(s.demand for s in rubbos_stations())
        assert result.response_time == pytest.approx(r0)

    def test_zero_population_continuous_with_one_user(self):
        # The N=0 base case must sit on the same curve the recursion
        # walks: one user on an empty network sees exactly R_0 too.
        stations = rubbos_stations()
        empty = mva(stations, 0, 7.0)
        one = mva(stations, 1, 7.0)
        assert one.response_time == pytest.approx(empty.response_time)

    def test_single_station_chain_matches_closed_form(self):
        # One queueing station, no think time: the machine-repairman
        # closed form X = N / (N * D) = 1/D holds for every N >= 1.
        station = Station("db", 0.02)
        for n in (1, 5, 50):
            result = mva([station], n, think_time=0.0)
            assert result.throughput == pytest.approx(1.0 / 0.02)
            assert result.response_time == pytest.approx(n * 0.02)
            assert result.queue_lengths["db"] == pytest.approx(float(n))

    def test_single_station_bottleneck_is_itself(self):
        result = mva([Station("only", 0.01)], 10, 1.0)
        assert result.bottleneck == "only"
        assert set(result.residence_times) == {"only"}


class TestSaturationPopulation:
    def test_knee_location(self):
        stations = rubbos_stations()
        knee = saturation_population(stations, 7.0)
        # Below the knee: utilization well under 1; above: saturated.
        below = mva(stations, int(knee * 0.5), 7.0)
        above = mva(stations, int(knee * 2.0), 7.0)
        assert below.utilizations["mysql"] < 0.75
        assert above.utilizations["mysql"] > 0.95

    def test_more_think_time_raises_knee(self):
        stations = rubbos_stations()
        assert saturation_population(stations, 14.0) > (
            saturation_population(stations, 7.0)
        )

    def test_paper_population_below_knee(self):
        # The paper's 3500-user RUBBoS runs sit below saturation — the
        # whole point of MemCA is damaging an *unsaturated* system.
        stations = rubbos_stations()
        assert 3500 < saturation_population(stations, 7.0)


class TestMvaAgainstMm1:
    def test_large_think_time_approaches_open_system(self):
        # With Z huge and N*D/Z << capacity, each station sees nearly
        # Poisson arrivals at rate N/Z: compare with M/M/1 utilization.
        station = Station("s", 0.01)
        result = mva([station], population=100, think_time=100.0)
        arrival = 100 / 100.0  # ~1 req/s
        assert result.utilizations["s"] == pytest.approx(
            arrival * 0.01, rel=0.05
        )
