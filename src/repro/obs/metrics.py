"""Counters, gauges, and a streaming percentile sketch.

The metrics registry is the numeric half of the observability layer:
cheap monotone counters, last-value gauges with min/max watermarks, and
:class:`StreamingHistogram` — a fixed-memory reservoir sketch (Vitter's
algorithm R) that supports percentile queries over an unbounded stream
without retaining it.  Numpy only; the reservoir's replacement RNG is
seeded at construction so snapshots are deterministic run-to-run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

__all__ = ["Counter", "Gauge", "StreamingHistogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be >= 0: {n}")
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value metric with min/max watermarks."""

    __slots__ = ("name", "value", "low", "high", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self.low = float("inf")
        self.high = float("-inf")
        self.updates = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        self.low = min(self.low, value)
        self.high = max(self.high, value)
        self.updates += 1

    def snapshot(self) -> dict:
        return {
            "type": "gauge",
            "value": self.value,
            "min": None if self.updates == 0 else self.low,
            "max": None if self.updates == 0 else self.high,
            "updates": self.updates,
        }


class StreamingHistogram:
    """Reservoir-sampled distribution sketch with percentile queries.

    Keeps at most ``capacity`` samples; once full, each new observation
    replaces a uniformly random kept one (algorithm R), so the reservoir
    stays a uniform sample of the whole stream.  Exact count/sum/min/max
    are tracked outside the reservoir.

    ``observe`` only stages its value; the staged values are folded in
    once :data:`BATCH` of them wait, and before any read.  A fold draws
    every replacement index with one ``Generator.integers`` call, which
    draws the same indices, and leaves the generator in the same state,
    as one scalar call per observation would: reservoir, count, sum,
    min and max equal the per-observation sketch's, bit for bit,
    wherever the folds fall.
    """

    #: Staged observations that trigger a fold.
    BATCH = 4096

    def __init__(self, capacity: int = 4096, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = int(capacity)
        self._buf = np.empty(self.capacity, dtype=float)
        self._rng = np.random.default_rng(seed)
        self._staged: List[float] = []
        self._count = 0
        self._total = 0.0
        self._low = float("inf")
        self._high = float("-inf")

    def observe(self, value: float) -> None:
        staged = self._staged
        staged.append(float(value))
        if len(staged) >= self.BATCH:
            self._fold()

    def _fold(self) -> None:
        """Fold the staged observations in, in stream order."""
        staged = self._staged
        if not staged:
            return
        self._staged = []
        n = self._count
        capacity = self.capacity
        fill = min(max(capacity - n, 0), len(staged))
        if fill:
            self._buf[n : n + fill] = staged[:fill]
        k = len(staged) - fill
        if k:
            # Observation i of the rest replaces slot j_i when j_i falls
            # inside the reservoir; j_i ~ U[0, count before it].
            first = n + fill + 1
            slots = self._rng.integers(
                0, np.arange(first, first + k)
            ).tolist()
            buf = self._buf
            for j, value in zip(slots, staged[fill:]):
                if j < capacity:
                    buf[j] = value
        # Left to right, as one += per observation: sum() compensates.
        total = self._total
        low = self._low
        high = self._high
        for value in staged:
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        self._count = n + len(staged)
        self._total = total
        self._low = low
        self._high = high

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total(self) -> float:
        self._fold()
        return self._total

    @property
    def low(self) -> float:
        self._fold()
        return self._low

    @property
    def high(self) -> float:
        self._fold()
        return self._high

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("empty histogram")
        return self.total / self.count

    def percentile(
        self, q: Union[float, Iterable[float]]
    ) -> Union[float, List[float]]:
        """Percentile estimate(s) from the reservoir (q in [0, 100])."""
        if self.count == 0:
            raise ValueError("empty histogram")
        sample = self._buf[: min(self.count, self.capacity)]
        result = np.percentile(sample, q)
        if np.ndim(result) == 0:
            return float(result)
        return [float(v) for v in result]

    def snapshot(self, percentiles=(50.0, 95.0, 99.0)) -> dict:
        out = {
            "type": "histogram",
            "count": self.count,
            "sample_size": min(self.count, self.capacity),
        }
        if self.count:
            out["mean"] = self.mean
            out["min"] = self.low
            out["max"] = self.high
            values = self.percentile(list(percentiles))
            out.update(
                {f"p{p:g}": v for p, v in zip(percentiles, values)}
            )
        return out


class MetricsRegistry:
    """Named metrics, created on first use (Prometheus-client style)."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, capacity: int = 4096, seed: int = 0
    ) -> StreamingHistogram:
        return self._get(
            name,
            StreamingHistogram,
            lambda: StreamingHistogram(capacity, seed),
        )

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, dict]:
        """One nested dict with every metric's current state."""
        return {
            name: self._metrics[name].snapshot()
            for name in self.names()
        }
