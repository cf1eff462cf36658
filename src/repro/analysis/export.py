"""Export run data for offline analysis.

A reproduction is only useful if its raw measurements can leave the
process: :func:`requests_to_rows` flattens completed requests into CSV
rows (the request-table goldens are built from it), and the span
exporters write traced requests as JSON lines or a Chrome
``trace_event`` file.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Sequence

from ..ntier.request import Request

__all__ = [
    "requests_to_rows",
    "write_spans_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
]


def requests_to_rows(
    requests: Iterable[Request], tiers: Sequence[str] = ()
) -> List[dict]:
    """Flatten requests into dict rows (per-tier RT columns optional).

    Drop/retransmission detail rides along so exported CSVs can rebuild
    Fig 9(d) offline: which tier dropped each attempt and when every
    attempt (initial + retransmissions) was sent.
    """
    rows = []
    for request in requests:
        row = {
            "rid": request.rid,
            "page": request.page,
            "t_first_attempt": request.t_first_attempt,
            "t_done": request.t_done,
            "response_time": request.response_time,
            "attempts": request.attempts,
            "failed": request.failed,
            "drops": request.drops,
            "drop_tiers": "|".join(request.drop_tiers),
            "attempt_times": "|".join(
                f"{t:.6f}" for t in request.attempt_times
            ),
        }
        for tier in tiers:
            row[f"rt_{tier}"] = request.tier_response_time(tier)
        rows.append(row)
    return rows


# -- span exports ---------------------------------------------------------


def write_spans_jsonl(path: str, requests: Iterable[Request]) -> int:
    """One JSON line per traced request: rid, metadata, full span tree.

    Untraced requests are skipped.  Returns the number of lines.
    """
    count = 0
    with open(path, "w") as fh:
        for request in requests:
            trace = request.trace
            if trace is None or trace.root is None:
                continue
            record = {
                "rid": request.rid,
                "page": request.page,
                "response_time": request.response_time,
                "attempts": request.attempts,
                "failed": request.failed,
                "spans": trace.root.to_dict(),
            }
            fh.write(json.dumps(record) + "\n")
            count += 1
    return count


def chrome_trace_events(
    requests: Iterable[Request], time_scale: float = 1e6
) -> List[dict]:
    """Traced requests as Chrome ``trace_event`` complete events.

    Load the resulting JSON in ``chrome://tracing`` / Perfetto: one
    track (tid) per request, one slice per span, simulation seconds
    mapped to microseconds.  Zero-duration spans are kept — a 0 µs
    ``queue_wait`` slice is still a meaningful marker.

    Tracks are numbered in traversal order, not by ``rid``: closed-loop
    rids are per-user counters, so they collide across users and would
    merge unrelated requests onto one track.  The rid rides along in
    each slice's ``args`` instead.
    """
    events: List[dict] = []
    tid = 0
    for request in requests:
        trace = request.trace
        if trace is None or trace.root is None:
            continue
        tid += 1
        for span, _depth in trace.walk():
            if span.end is None:
                continue
            event = {
                "name": f"{span.kind}:{span.name}",
                "cat": span.kind,
                "ph": "X",
                "ts": span.start * time_scale,
                "dur": span.duration * time_scale,
                "pid": 1,
                "tid": tid,
                "args": {"rid": request.rid},
            }
            if span.attrs:
                event["args"].update(span.attrs)
            events.append(event)
    return events


def write_chrome_trace(
    path: str, requests: Iterable[Request], time_scale: float = 1e6
) -> int:
    """Write the Chrome trace_event JSON file; returns the event count."""
    events = chrome_trace_events(requests, time_scale=time_scale)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {"source": "repro.obs span tracer"},
    }
    with open(path, "w") as fh:
        json.dump(document, fh)
        fh.write("\n")
    return len(events)
