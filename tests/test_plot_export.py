"""Unit tests for ASCII charting and data export."""

from repro.analysis import (
    ascii_chart,
    ascii_percentiles,
    ascii_timeseries,
    percentile_curve,
    requests_to_rows,
)
from repro.monitoring import TimeSeries
from repro.ntier import Request


class TestAsciiChart:
    def test_renders_grid_with_legend(self):
        text = ascii_chart(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            width=20,
            height=5,
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "*=a" in lines[1] and "o=b" in lines[1]
        assert any("*" in line for line in lines)
        assert any("o" in line for line in lines)

    def test_empty_series(self):
        assert "(no data)" in ascii_chart({"a": []}, title="x")

    def test_constant_series_does_not_crash(self):
        text = ascii_chart({"flat": [(0, 1.0), (1, 1.0), (2, 1.0)]})
        assert "*" in text

    def test_y_bounds_labelled(self):
        text = ascii_chart({"a": [(0, 2.0), (1, 8.0)]}, height=6)
        assert "8" in text and "2" in text

    def test_timeseries_wrapper(self):
        ts = TimeSeries("util")
        for i in range(10):
            ts.append(i * 0.1, i / 10)
        text = ascii_timeseries({"util": ts}, title="u")
        assert "time (s)" in text

    def test_percentile_wrapper(self):
        curves = {
            "client": percentile_curve(
                "client", [0.1, 0.2, 5.0], percentiles=(50, 95, 99)
            )
        }
        text = ascii_percentiles(curves, title="p")
        assert "percentile" in text


def make_request(rid, rt, page="p"):
    r = Request(rid=rid, page=page, demands={"mysql": 0.001})
    r.t_first_attempt = 0.0
    r.t_done = rt
    r.attempts = 1
    r.record_span("mysql", 0.0, rt / 2)
    return r


class TestExport:
    def test_requests_to_rows(self):
        rows = requests_to_rows(
            [make_request(1, 0.5)], tiers=("mysql", "tomcat")
        )
        row = rows[0]
        assert row["rid"] == 1
        assert row["response_time"] == 0.5
        assert row["rt_mysql"] == 0.25
        assert row["rt_tomcat"] is None
