"""Unit tests for the commander's scalar Kalman filter."""

import numpy as np
import pytest

from repro.core import ScalarKalmanFilter


class TestScalarKalman:
    def test_converges_to_constant_signal(self):
        kf = ScalarKalmanFilter(initial=0.0, measurement_var=0.01)
        rng = np.random.default_rng(1)
        estimate = 0.0
        for _ in range(200):
            estimate = kf.update(5.0 + 0.1 * rng.standard_normal())
        assert estimate == pytest.approx(5.0, abs=0.15)

    def test_smooths_noise(self):
        kf = ScalarKalmanFilter(
            initial=5.0, initial_var=0.1, process_var=1e-4,
            measurement_var=1.0,
        )
        rng = np.random.default_rng(2)
        estimates = [
            kf.update(5.0 + rng.standard_normal()) for _ in range(300)
        ]
        assert np.std(estimates[100:]) < 0.5  # much less than input noise

    def test_tracks_a_step_change(self):
        kf = ScalarKalmanFilter(
            initial=0.0, process_var=0.05, measurement_var=0.1
        )
        for _ in range(50):
            kf.update(0.0)
        for _ in range(80):
            kf.update(2.0)
        assert kf.estimate == pytest.approx(2.0, abs=0.2)

    def test_variance_shrinks_with_updates(self):
        kf = ScalarKalmanFilter(initial_var=10.0, process_var=0.0,
                                measurement_var=1.0)
        v0 = kf.P
        for _ in range(10):
            kf.update(1.0)
        assert kf.P < v0

    def test_update_counter(self):
        kf = ScalarKalmanFilter()
        kf.update(1.0)
        kf.update(2.0)
        assert kf.updates == 2

    def test_invalid_variances(self):
        with pytest.raises(ValueError):
            ScalarKalmanFilter(initial_var=0.0)
        with pytest.raises(ValueError):
            ScalarKalmanFilter(measurement_var=0.0)

