"""Counters and gauges.

The metrics registry is the numeric half of the observability layer:
cheap monotone counters and last-value gauges with min/max watermarks.
It holds no latency distribution: a run's exact response-time tail is
read from its request log (``app.completed.column("response_time")``),
and the live windowed tails are the telemetry pipeline's
:class:`~repro.obs.sketch.LogHistogram` sketches.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["Counter", "Gauge", "MetricsRegistry"]


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
