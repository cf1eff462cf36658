"""The M/M/1 reference the DES is validated against.

The paper's system model (Section IV-B) is a tandem of exponential
servers fed by Poisson arrivals.  With no attack, one such station is
an M/M/1 queue, whose closed-form mean sojourn time the single-station
simulation must match (``tests/test_integration.py``).
"""

from __future__ import annotations

__all__ = ["mm1_mean_rt"]


def _check_stable(arrival: float, service: float) -> float:
    if service <= 0:
        raise ValueError(f"service rate must be positive: {service}")
    if arrival < 0:
        raise ValueError(f"negative arrival rate: {arrival}")
    rho = arrival / service
    if rho >= 1:
        raise ValueError(f"unstable queue: rho={rho:.3f} >= 1")
    return rho


def mm1_mean_rt(arrival: float, service: float) -> float:
    """Mean sojourn time W = 1 / (mu - lambda)."""
    _check_stable(arrival, service)
    return 1.0 / (service - arrival)
