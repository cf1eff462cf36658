"""Unit tests for tail statistics and text reporting."""

import pytest

from repro.analysis import (
    client_percentile_curve,
    format_percentile_curves,
    format_series,
    format_table,
    percentile_curve,
    tier_percentile_curves,
)
from repro.ntier import Request


def make_request(rid, rt, tiers=None, failed=False):
    r = Request(rid=rid, page="p", demands={})
    r.t_first_attempt = 0.0
    r.t_done = rt
    r.failed = failed
    for tier, span in (tiers or {}).items():
        r.record_span(tier, 0.0, span)
    return r


class TestPercentileCurve:
    def test_basic_percentiles(self):
        curve = percentile_curve("x", range(101), percentiles=(50, 99))
        assert curve.as_dict()[50] == pytest.approx(50.0)
        assert curve.as_dict()[99] == pytest.approx(99.0)
        assert curve.samples == 101

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            percentile_curve("x", [])

    def test_missing_percentile_lookup(self):
        curve = percentile_curve("x", [1, 2, 3], percentiles=(50,))
        with pytest.raises(KeyError):
            curve.as_dict()[99]

    def test_as_dict(self):
        curve = percentile_curve("x", [1.0], percentiles=(50, 90))
        assert set(curve.as_dict()) == {50.0, 90.0}


class TestRequestCurves:
    def test_client_curve_excludes_failed(self):
        requests = [make_request(i, 0.1) for i in range(10)]
        requests.append(make_request(99, 50.0, failed=True))
        curve = client_percentile_curve(requests, percentiles=(99,))
        assert curve.as_dict()[99] < 1.0

    def test_tier_curves_only_for_visited(self):
        requests = [
            make_request(1, 0.2, tiers={"apache": 0.2, "mysql": 0.1}),
            make_request(2, 0.3, tiers={"apache": 0.3}),
        ]
        curves = tier_percentile_curves(
            requests, ("apache", "mysql", "tomcat"), percentiles=(50,)
        )
        assert curves["apache"].samples == 2
        assert curves["mysql"].samples == 1
        assert "tomcat" not in curves


class TestFormatting:
    def test_table_aligns_and_formats_floats(self):
        text = format_table(
            ["name", "value"], [["a", 1.23456], ["bb", 2]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text
        assert "bb" in text

    def test_curve_table_orders_series(self):
        curves = {
            "mysql": percentile_curve("mysql", [0.1], percentiles=(50,)),
            "client": percentile_curve("client", [0.2], percentiles=(50,)),
        }
        text = format_percentile_curves(curves, order=("client", "mysql"))
        client_pos = text.find("client")
        mysql_pos = text.find("mysql")
        assert 0 < client_pos < mysql_pos

    def test_curve_table_requires_curves(self):
        with pytest.raises(ValueError):
            format_percentile_curves({}, order=("missing",))

    def test_series_downsamples(self):
        text = format_series(
            "s", list(range(1000)), [0.5] * 1000, max_points=10
        )
        assert text.count("=") <= 30

    def test_series_empty(self):
        assert "(empty)" in format_series("s", [], [])

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("s", [1.0], [])
