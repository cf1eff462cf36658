"""Terminal plotting: render time series and curves as ASCII charts.

``python -m repro`` regenerates the paper's *figures*; these helpers
make the regenerated data look like figures on a terminal — a line
chart for time series (Figs 6, 9, 10, 11) and a multi-series chart for
percentile curves (Figs 2, 7).  Pure text, no dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ascii_chart", "ascii_timeseries", "ascii_percentiles"]

#: Glyphs assigned to successive series in a multi-series chart.
_GLYPHS = "*o+x#@%&"


def _scale(
    value: float, lo: float, hi: float, cells: int
) -> int:
    if hi <= lo:
        return 0
    position = (value - lo) / (hi - lo)
    return min(cells - 1, max(0, int(position * (cells - 1) + 0.5)))


def ascii_chart(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 72,
    height: int = 16,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render named (x, y) series on one shared-axes ASCII grid."""
    if not series or all(len(points) == 0 for points in series.values()):
        return f"{title}: (no data)"
    xs = [x for points in series.values() for x, _y in points]
    ys = [y for points in series.values() for _x, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(series.items()):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for x, y in points:
            col = _scale(x, x_lo, x_hi, width)
            row = height - 1 - _scale(y, y_lo, y_hi, height)
            grid[row][col] = glyph
    lines: List[str] = []
    if title:
        lines.append(title)
    legend = "  ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append(legend)
    top_label = f"{y_hi:.3g}"
    bottom_label = f"{y_lo:.3g}"
    margin = max(len(top_label), len(bottom_label)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(margin)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|{''.join(row)}")
    axis = " " * margin + "+" + "-" * width
    lines.append(axis)
    x_axis = (
        " " * (margin + 1)
        + f"{x_lo:.3g}".ljust(width - 12)
        + f"{x_hi:.3g}".rjust(12)
    )
    lines.append(x_axis)
    if x_label or y_label:
        lines.append(
            " " * (margin + 1)
            + (f"x: {x_label}" if x_label else "")
            + (f"   y: {y_label}" if y_label else "")
        )
    return "\n".join(lines)


def ascii_timeseries(
    named_series: Dict[str, "object"],
    width: int = 72,
    height: int = 14,
    title: str = "",
    y_label: str = "",
) -> str:
    """Chart :class:`~repro.monitoring.TimeSeries` objects together."""
    series = {
        name: list(zip(ts.times, ts.values))
        for name, ts in named_series.items()
    }
    return ascii_chart(
        series,
        width=width,
        height=height,
        title=title,
        x_label="time (s)",
        y_label=y_label,
    )


def ascii_percentiles(
    curves: Dict[str, "object"],
    order: Optional[Sequence[str]] = None,
    width: int = 72,
    height: int = 14,
    title: str = "",
) -> str:
    """Chart :class:`~repro.analysis.PercentileCurve` objects (Fig 2/7)."""
    names = [n for n in (order or curves) if n in curves]
    series = {
        name: list(zip(curves[name].percentiles, curves[name].values))
        for name in names
    }
    return ascii_chart(
        series,
        width=width,
        height=height,
        title=title,
        x_label="percentile",
        y_label="response time (s)",
    )
