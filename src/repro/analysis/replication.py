"""Multi-seed replication: are the headline numbers seed-luck?

Every scenario in this reproduction is deterministic given a seed; the
replication harness re-runs a metric extractor across seeds and reports
mean, standard deviation, and a normal-approximation confidence
interval, so tests can assert results hold *across* randomness, not
just at one lucky seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .report import format_table

__all__ = ["Replication", "replicate"]

#: Two-sided 95% normal quantile.
_Z95 = 1.96


@dataclass(frozen=True)
class Replication:
    """Aggregated metric values across seed replications."""

    metric: str
    seeds: Tuple[int, ...]
    values: Tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if self.n > 1 else 0.0

    @property
    def ci95(self) -> Tuple[float, float]:
        """95% confidence interval on the mean (normal approximation)."""
        half = _Z95 * self.std / math.sqrt(self.n) if self.n > 1 else 0.0
        return (self.mean - half, self.mean + half)


def replicate(
    run_metrics: Callable[[int], Dict[str, float]],
    seeds: Sequence[int],
) -> Dict[str, Replication]:
    """Run ``run_metrics(seed)`` per seed and aggregate each metric.

    ``run_metrics`` executes one full experiment and returns named
    scalar metrics; all replications must return the same metric keys.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    per_metric: Dict[str, List[float]] = {}
    for seed in seeds:
        metrics = run_metrics(int(seed))
        if not per_metric:
            per_metric = {name: [] for name in metrics}
        if set(metrics) != set(per_metric):
            raise ValueError(
                f"seed {seed} returned metrics {sorted(metrics)}, "
                f"expected {sorted(per_metric)}"
            )
        for name, value in metrics.items():
            per_metric[name].append(float(value))
    return {
        name: Replication(
            metric=name,
            seeds=tuple(int(s) for s in seeds),
            values=tuple(values),
        )
        for name, values in per_metric.items()
    }


def format_replications(
    replications: Dict[str, Replication], title: str = ""
) -> str:
    """Render a replication table (mean +- CI, spread, extremes)."""
    rows = []
    for name, rep in replications.items():
        low, high = rep.ci95
        rows.append(
            [
                name,
                rep.n,
                rep.mean,
                rep.std,
                f"[{low:.4g}, {high:.4g}]",
                min(rep.values),
                max(rep.values),
            ]
        )
    return format_table(
        ["metric", "n", "mean", "std", "95% CI", "min", "max"],
        rows,
        title=title or "Replication across seeds",
    )
