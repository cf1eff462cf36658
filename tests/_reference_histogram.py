"""The reservoir sketch as it was before observations were batched.

A verbatim copy of ``repro.obs.metrics.StreamingHistogram`` from before
``observe`` staged its values: every observation past capacity made one
scalar ``Generator.integers`` call and wrote its slot at once.  Nothing
in ``src`` uses it: it is the reference ``tests/test_obs_metrics.py``
checks the batched fold against, bit for bit.
"""

from __future__ import annotations

from typing import Iterable, List, Union

import numpy as np

__all__ = ["StreamingHistogram"]


class StreamingHistogram:
    """Reservoir-sampled distribution sketch with percentile queries.

    Keeps at most ``capacity`` samples; once full, each new observation
    replaces a uniformly random kept one (algorithm R), so the reservoir
    stays a uniform sample of the whole stream.  Exact count/sum/min/max
    are tracked outside the reservoir.
    """

    def __init__(self, capacity: int = 4096, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = int(capacity)
        self._buf = np.empty(self.capacity, dtype=float)
        self._rng = np.random.default_rng(seed)
        self.count = 0
        self.total = 0.0
        self.low = float("inf")
        self.high = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        if self.count < self.capacity:
            self._buf[self.count] = value
        else:
            j = int(self._rng.integers(0, self.count + 1))
            if j < self.capacity:
                self._buf[j] = value
        self.count += 1
        self.total += value
        self.low = min(self.low, value)
        self.high = max(self.high, value)

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
