"""Attribution pass, span exporters, and the ``trace`` CLI command."""

import json
import os

import pytest

from repro.analysis.attribution import (
    attribute_requests,
    component_breakdown,
)
from repro.analysis.export import (
    chrome_trace_events,
    requests_to_rows,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.core.burst import BurstRecord
from repro.ntier.request import Request
from tests._reference_trace import Trace


def traced_request(rid=1, rto=1.0):
    """A hand-built request: 1 drop, 1 retransmission, slow DB queue."""
    request = Request(rid=rid, page="view", demands={"web": 0.01})
    request.t_first_attempt = 10.0
    request.attempts = 2
    request.attempt_times = [10.0, 10.0 + rto]
    request.drop_tiers = ["web"]
    trace = Trace(rid)
    trace.begin("request", "view", 10.0)
    trace.begin("attempt", "attempt-1", 10.0)
    trace.end_dropped(10.0, "web")
    trace.backoff("rto_wait", "rto-1", 10.0, 10.0 + rto, rto)
    trace.begin("attempt", "attempt-2", 10.0 + rto)
    trace.begin("tier", "web", 10.0 + rto)
    trace.add("queue_wait", "web", 10.0 + rto, 10.3 + rto)
    trace.service("web", 10.3 + rto, 10.4 + rto, 0.01, 0.1)
    trace.end(10.4 + rto)
    trace.end(10.4 + rto)
    trace.end_status(10.4 + rto, "ok", 2)
    request.t_done = 10.4 + rto
    request.trace = trace
    request.record_span("web", 10.0 + rto, 10.4 + rto)
    return request


def untraced_request(rid=2):
    """2 drops then success; nested tier spans, no span tree."""
    request = Request(rid=rid, page="view", demands={"web": 0.01})
    request.t_first_attempt = 20.0
    # Drops at t=20 and t=21 (rto 1s), success attempt at t=23 (rto 2s).
    request.attempts = 3
    request.attempt_times = [20.0, 21.0, 23.0]
    request.drop_tiers = ["web", "web"]
    request.t_done = 23.5
    request.record_span("web", 23.0, 23.5)
    request.record_span("db", 23.1, 23.4)
    return request


class TestComponentBreakdown:
    def test_traced_request_uses_leaf_spans(self):
        components = component_breakdown(traced_request())
        assert components["rto_wait"] == pytest.approx(1.0)
        assert components["queue_wait:web"] == pytest.approx(0.3)
        assert components["service:web"] == pytest.approx(0.1)
        assert sum(components.values()) == pytest.approx(1.4)

    def test_untraced_request_reconstructs(self):
        components = component_breakdown(untraced_request())
        # Two drops: backoffs 1s + 2s.
        assert components["rto_wait"] == pytest.approx(3.0)
        # Exclusive time: web 0.5 - db 0.3, db 0.3.
        assert components["tier:web"] == pytest.approx(0.2)
        assert components["tier:db"] == pytest.approx(0.3)

    def test_failed_request_has_no_final_backoff(self):
        # max_retries + 1 drops, but only max_retries backoffs slept.
        request = Request(rid=3, page="view", demands={})
        request.t_first_attempt = 0.0
        request.t_done = 127.0
        request.attempts = 7
        request.failed = True
        request.drop_tiers = ["web"] * 7
        components = component_breakdown(request)
        # 1+2+4+8+16+32 = 63, never indexes past max_retries.
        assert components["rto_wait"] == pytest.approx(63.0)


class TestAttributeRequests:
    def test_overlap_join_and_coverage(self):
        slow = traced_request(rid=1)  # lifetime [10.0, 11.4]
        fast = Request(rid=9, page="p", demands={})
        fast.t_first_attempt = 50.0
        fast.t_done = 50.1
        fast.attempts = 1
        burst_hit = BurstRecord(start=9.5, end=10.5, intensity=4.0)
        burst_miss = BurstRecord(start=40.0, end=41.0, intensity=4.0)
        report = attribute_requests(
            [slow, fast],
            bursts=[burst_hit, burst_miss],
            episodes=[(10.2, 10.6)],
            threshold=1.0,
        )
        assert report.total_requests == 2
        assert report.slow_requests == 1
        [attr] = report.attributions
        assert attr.rid == 1
        assert attr.bursts == [burst_hit]
        assert attr.episodes == [(10.2, 10.6)]
        assert attr.attributed
        assert attr.dominant == "rto_wait"
        assert attr.dominant_share == pytest.approx(1.0 / 1.4)
        assert report.coverage == 1.0
        assert report.dominant_counts() == {"rto_wait": 1}

    def test_fade_slack_extends_windows_forward(self):
        slow = traced_request(rid=1)  # starts at 10.0
        ended_burst = BurstRecord(start=9.0, end=9.7, intensity=4.0)
        hit = attribute_requests([slow], bursts=[ended_burst], fade_slack=0.5)
        miss = attribute_requests([slow], bursts=[ended_burst], fade_slack=0.0)
        assert hit.attributions[0].attributed
        assert not miss.attributions[0].attributed

    def test_unfinished_requests_skipped(self):
        pending = Request(rid=5, page="p", demands={})
        pending.t_first_attempt = 1.0  # t_done stays None
        report = attribute_requests([pending], threshold=0.0)
        assert report.total_requests == 0
        assert report.coverage == 1.0  # vacuous

    def test_render_mentions_dominant(self):
        report = attribute_requests(
            [traced_request()], bursts=[BurstRecord(10.0, 10.5, 4.0)]
        )
        text = report.render()
        assert "100.0% coverage" in text
        assert "rto_wait" in text

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            attribute_requests([], threshold=-1.0)


class TestExporters:
    def test_request_rows_carry_drop_detail(self):
        [row] = requests_to_rows([untraced_request()], tiers=["web"])
        assert row["drops"] == 2
        assert row["drop_tiers"] == "web|web"
        assert row["attempt_times"] == "20.000000|21.000000|23.000000"
        assert row["rt_web"] == pytest.approx(0.5)

    def test_write_spans_jsonl_skips_untraced(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        count = write_spans_jsonl(
            path, [traced_request(), untraced_request()]
        )
        assert count == 1
        with open(path) as fh:
            [record] = [json.loads(line) for line in fh]
        assert record["rid"] == 1
        assert record["spans"]["kind"] == "request"
        kinds = [c["kind"] for c in record["spans"]["children"]]
        assert kinds == ["attempt", "rto_wait", "attempt"]

    def test_chrome_trace_events_shape(self, tmp_path):
        request = traced_request()
        events = chrome_trace_events([request, untraced_request()])
        assert all(e["ph"] == "X" for e in events)
        # One track per traced request; rid travels in args.
        assert all(e["tid"] == 1 for e in events)
        assert all(e["args"]["rid"] == request.rid for e in events)
        root = next(e for e in events if e["cat"] == "request")
        assert root["ts"] == pytest.approx(10.0 * 1e6)
        assert root["dur"] == pytest.approx(1.4 * 1e6)
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(path, [request])
        with open(path) as fh:
            document = json.load(fh)
        assert len(document["traceEvents"]) == count == len(events)


class TestTraceCli:
    def test_trace_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "traceout")
        code = main(
            [
                "trace",
                "fig2",
                "--duration",
                "20",
                "--users",
                "200",
                "--out",
                out,
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "coverage" in text
        assert "kernel:" in text
        spans_path = os.path.join(out, "fig2-spans.jsonl")
        chrome_path = os.path.join(out, "fig2-trace.json")
        assert os.path.exists(spans_path)
        assert os.path.exists(chrome_path)
        with open(spans_path) as fh:
            first = json.loads(fh.readline())
        assert first["spans"]["kind"] == "request"

    def test_trace_unknown_scenario_errors(self, capsys):
        from repro.cli import main

        assert main(["trace", "nope"]) == 2
        assert "scenario" in capsys.readouterr().err
