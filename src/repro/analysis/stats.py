"""Tail-latency statistics: percentile curves.

The paper's primary damage metric is the percentile response-time curve
per tier (Fig 2, Fig 7): response time as a function of percentile,
whose nonlinear upturn is the "long tail" and whose front-to-back
ordering is the amplification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..ntier.request import Request

__all__ = [
    "PercentileCurve",
    "percentile_curve",
    "tier_percentile_curves",
    "client_percentile_curve",
]

#: Default percentile grid matching the paper's figures.
DEFAULT_PERCENTILES = (50, 75, 90, 95, 98, 99)


@dataclass(frozen=True)
class PercentileCurve:
    """A named percentile -> value curve."""

    name: str
    percentiles: Tuple[float, ...]
    values: Tuple[float, ...]
    samples: int

    def at(self, percentile: float) -> float:
        for p, v in zip(self.percentiles, self.values):
            if p == percentile:
                return v
        raise KeyError(f"percentile {percentile} not in curve")

    def as_dict(self) -> Dict[float, float]:
        return dict(zip(self.percentiles, self.values))


def percentile_curve(
    name: str,
    samples: Iterable[float],
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
) -> PercentileCurve:
    """Compute a percentile curve from raw samples."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError(f"no samples for curve {name!r}")
    values = tuple(float(np.percentile(data, p)) for p in percentiles)
    return PercentileCurve(
        name=name,
        percentiles=tuple(float(p) for p in percentiles),
        values=values,
        samples=int(data.size),
    )


def client_percentile_curve(
    requests: Iterable[Request],
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
    name: str = "client",
) -> PercentileCurve:
    """Client-perceived RT curve (TCP retransmissions included)."""
    rts = [
        r.response_time
        for r in requests
        if r.response_time is not None and not r.failed
    ]
    return percentile_curve(name, rts, percentiles)


def tier_percentile_curves(
    requests: Iterable[Request],
    tiers: Sequence[str],
    percentiles: Sequence[float] = DEFAULT_PERCENTILES,
) -> Dict[str, PercentileCurve]:
    """Per-tier RT curves over the requests that visited each tier."""
    request_list = list(requests)
    curves = {}
    for tier in tiers:
        samples = [
            rt
            for rt in (r.tier_response_time(tier) for r in request_list)
            if rt is not None
        ]
        if samples:
            curves[tier] = percentile_curve(tier, samples, percentiles)
    return curves
