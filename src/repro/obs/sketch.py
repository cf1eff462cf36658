"""Streaming quantile sketch: an O(1)-memory tail estimator.

The paper's thesis is that millibottleneck damage lives *only* in the
latency tail, so live monitoring has to answer percentile queries over
an unbounded completion stream without retaining it.
:class:`LogHistogram` is a DDSketch-style log-bucketed histogram with a
*guaranteed* relative accuracy: every value lands in the bucket
``ceil(log_gamma(v))`` where ``gamma = (1 + a) / (1 - a)``, so any
quantile read back from bucket representatives is within relative
error ``a`` of the exact sample quantile.  Buckets are counts in a
dict, so memory is O(log(max/min) / a) regardless of stream length,
and two histograms merge by adding counts.  Its readers:

* the telemetry pipeline folds per-window sketches into run-cumulative
  estimates (:class:`repro.obs.streaming.TelemetryPipeline`);
* the adaptive tracer keeps one of its own and re-reads its promotion
  threshold from it every ``min_promote_samples`` completions
  (:class:`repro.obs.tracer.Tracer`);
* each datacenter shard keeps one, and the run merges them into one
  latency view across the fabric (:mod:`repro.experiments.datacenter`).

The sketch has no RNG and depends on nothing but the observed values,
so fixed-seed runs produce identical telemetry byte for byte.  A run's
*exact* tail is not a sketch's job: every run keeps its finished
requests in a :class:`~repro.ntier.request.RequestLog`, whose
``response_time`` column answers it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Union

__all__ = ["LogHistogram"]


class LogHistogram:
    """Log-bucketed histogram with guaranteed relative accuracy.

    ``relative_accuracy`` bounds the error of every quantile estimate:
    with ``a = relative_accuracy`` and ``gamma = (1 + a) / (1 - a)``,
    value ``v`` lands in bucket ``ceil(log_gamma(v))`` and is read back
    as the bucket representative ``2 * gamma^i / (gamma + 1)``, which
    is within ``a * v`` of any value the bucket can hold.  Values at or
    below ``min_value`` collapse into a dedicated zero bucket (response
    times are positive, so it only catches degenerate zeros).

    Count/sum/min/max are tracked exactly; ``merge`` adds bucket counts
    (same-accuracy sketches only), making windows foldable into
    cumulative estimates.
    """

    __slots__ = (
        "relative_accuracy",
        "min_value",
        "_gamma_log",
        "_gamma",
        "buckets",
        "zero_count",
        "count",
        "total",
        "low",
        "high",
    )

    def __init__(self, relative_accuracy: float = 0.01, min_value: float = 1e-9):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1): {relative_accuracy}"
            )
        if min_value <= 0.0:
            raise ValueError(f"min_value must be positive: {min_value}")
        self.relative_accuracy = float(relative_accuracy)
        self.min_value = float(min_value)
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._gamma_log = math.log(self._gamma)
        #: bucket index -> observation count.
        self.buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.low = float("inf")
        self.high = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.low:
            self.low = value
        if value > self.high:
            self.high = value
        if value <= self.min_value:
            self.zero_count += 1
            return
        index = math.ceil(math.log(value) / self._gamma_log)
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other``'s counts into this sketch (same accuracy)."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different accuracies: "
                f"{self.relative_accuracy} vs {other.relative_accuracy}"
            )
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        self.low = min(self.low, other.low)
        self.high = max(self.high, other.high)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("empty histogram")
        return self.total / self.count

    def _representative(self, index: int) -> float:
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(
        self, q: Union[float, Iterable[float]]
    ) -> Union[float, List[float]]:
        """Quantile estimate(s), ``q`` in [0, 100] percentile units.

        Estimates are clamped to the exact [min, max] watermarks, so
        q=0 / q=100 are exact and no representative overshoots the
        observed range.
        """
        if not isinstance(q, (int, float)):
            return [self.quantile(single) for single in q]
        if self.count == 0:
            raise ValueError("empty histogram")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile must be in [0, 100]: {q}")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        if rank <= self.zero_count:
            return 0.0
        seen = self.zero_count
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                value = self._representative(index)
                return min(max(value, self.low), self.high)
        return self.high  # pragma: no cover - rank <= count always hits

    def snapshot(self, percentiles=(50.0, 99.0, 99.9)) -> dict:
        out = {
            "type": "log_histogram",
            "count": self.count,
            "buckets": len(self.buckets),
            "relative_accuracy": self.relative_accuracy,
        }
        if self.count:
            out["mean"] = self.mean
            out["min"] = self.low
            out["max"] = self.high
            for p in percentiles:
                out[f"p{p:g}"] = self.quantile(p)
        return out
