"""Analysis: tail statistics, reporting, attribution, charts, export."""

from .attribution import (
    AttributionReport,
    RequestAttribution,
    attribute_requests,
    attribute_run,
    component_breakdown,
)
from .export import (
    chrome_trace_events,
    requests_to_rows,
    write_chrome_trace,
    write_spans_jsonl,
)
from .plot import ascii_chart, ascii_percentiles, ascii_timeseries
from .replication import Replication, format_replications, replicate
from .report import format_percentile_curves, format_series, format_table
from .stats import (
    PercentileCurve,
    client_percentile_curve,
    percentile_curve,
    tier_percentile_curves,
)

__all__ = [
    "AttributionReport",
    "PercentileCurve",
    "Replication",
    "RequestAttribution",
    "ascii_chart",
    "ascii_percentiles",
    "ascii_timeseries",
    "attribute_requests",
    "attribute_run",
    "chrome_trace_events",
    "client_percentile_curve",
    "component_breakdown",
    "format_percentile_curves",
    "format_replications",
    "format_series",
    "format_table",
    "percentile_curve",
    "replicate",
    "requests_to_rows",
    "tier_percentile_curves",
    "write_chrome_trace",
    "write_spans_jsonl",
]
