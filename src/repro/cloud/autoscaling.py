"""Cloud elasticity: CloudWatch-style sampling feeding auto-scaling.

Amazon's Auto Scaling triggers off CloudWatch, whose sampling period is
one minute; the canonical policy scales out when a 1-minute average CPU
utilization crosses a threshold (the paper assumes 85%).  MemCA's whole
point is that a 500 ms burst repeated every 2 s leaves the 1-minute
average moderate, so the trigger never fires (Fig 10a).

:class:`AutoScalingPolicy` evaluates a utilization series offline
(:meth:`~AutoScalingPolicy.evaluate`), recording any scale-out
decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..monitoring.metrics import TimeSeries

__all__ = ["AutoScalingPolicy", "ScalingEvent"]


@dataclass(frozen=True)
class ScalingEvent:
    """One scale-out decision: when, and on what observed average."""

    time: float
    observed_utilization: float


@dataclass
class AutoScalingPolicy:
    """Threshold scale-out policy on sampled average CPU utilization.

    ``threshold`` — trigger level (paper: 0.85).
    ``period`` — sampling/averaging period in seconds (CloudWatch: 60).
    ``consecutive_periods`` — periods above threshold required.
    """

    threshold: float = 0.85
    period: float = 60.0
    consecutive_periods: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.threshold <= 1:
            raise ValueError(f"threshold outside (0,1]: {self.threshold}")
        if self.period <= 0:
            raise ValueError(f"period must be positive: {self.period}")
        if self.consecutive_periods < 1:
            raise ValueError("consecutive_periods must be >= 1")

    def evaluate(self, fine_series: TimeSeries) -> List[ScalingEvent]:
        """Offline: would this policy ever have scaled out?

        ``fine_series`` is any utilization series at granularity finer
        than (or equal to) the policy period; it is resampled to the
        policy period first, exactly like CloudWatch aggregation.
        """
        coarse = fine_series.resample(self.period, agg="mean")
        events: List[ScalingEvent] = []
        run = 0
        for t, v in coarse:
            run = run + 1 if v > self.threshold else 0
            if run >= self.consecutive_periods:
                events.append(ScalingEvent(time=t, observed_utilization=v))
                run = 0
        return events
