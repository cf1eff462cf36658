"""The Kalman filter of the MemCA commander.

Section IV-C: the attacker cannot know the victim's service rates or
utilization, so MemCA closes the loop on its own probe measurements,
smoothing them with a Kalman filter and stepping the attack parameters
toward the goal.  This module provides that filter, a scalar one (the
paper cites Kalman 1960); :mod:`.backend`'s commander feeds it.
"""

from __future__ import annotations

__all__ = ["ScalarKalmanFilter"]


class ScalarKalmanFilter:
    """1-D Kalman filter tracking a slowly drifting scalar.

    Random-walk state model: ``x_k = x_{k-1} + w`` with process noise
    variance ``process_var``; measurements ``z_k = x_k + v`` with
    measurement noise variance ``measurement_var``.  Exactly what the
    commander needs to de-noise percentile-RT probe estimates.
    """

    def __init__(
        self,
        initial: float = 0.0,
        initial_var: float = 1.0,
        process_var: float = 1e-3,
        measurement_var: float = 0.05,
    ):
        if initial_var <= 0 or process_var < 0 or measurement_var <= 0:
            raise ValueError("variances must be positive")
        self.x = float(initial)
        self.P = float(initial_var)
        self.process_var = float(process_var)
        self.measurement_var = float(measurement_var)
        self.updates = 0

    def update(self, measurement: float) -> float:
        """Fold in one measurement; returns the filtered estimate."""
        # Predict.
        self.P += self.process_var
        # Update.
        gain = self.P / (self.P + self.measurement_var)
        self.x += gain * (float(measurement) - self.x)
        self.P *= 1.0 - gain
        self.updates += 1
        return self.x

    @property
    def estimate(self) -> float:
        return self.x
