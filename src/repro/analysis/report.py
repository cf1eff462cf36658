"""Plain-text reporting: the tables and series the figures print.

``python -m repro`` regenerates every paper figure as rows/series on
stdout; this module renders them consistently.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .stats import PercentileCurve

__all__ = ["format_table", "format_percentile_curves", "format_series"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str = "",
    float_format: str = "{:.4g}",
) -> str:
    """Render an aligned plain-text table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_percentile_curves(
    curves: Dict[str, PercentileCurve],
    order: Optional[Sequence[str]] = None,
    title: str = "",
    unit_scale: float = 1e3,
    unit: str = "ms",
) -> str:
    """Render percentile curves as one row per series (like Fig 2/7)."""
    names = list(order) if order else list(curves)
    names = [n for n in names if n in curves]
    if not names:
        raise ValueError("no curves to format")
    percentiles = curves[names[0]].percentiles
    headers = ["series"] + [f"p{p:g} ({unit})" for p in percentiles]
    rows = []
    for name in names:
        curve = curves[name]
        rows.append(
            [name] + [v * unit_scale for v in curve.values]
        )
    return format_table(headers, rows, title=title, float_format="{:.1f}")


def format_series(
    title: str,
    times: Sequence[float],
    values: Sequence[float],
    max_points: int = 40,
    value_format: str = "{:.3g}",
) -> str:
    """Render a time series compactly (down-sampled if long)."""
    n = len(times)
    if n != len(values):
        raise ValueError("times and values must have equal length")
    if n == 0:
        return f"{title}: (empty)"
    stride = max(1, n // max_points)
    pairs = [
        f"{times[i]:.2f}s={value_format.format(values[i])}"
        for i in range(0, n, stride)
    ]
    return f"{title} ({n} samples): " + " ".join(pairs)
