"""Model parameters (the paper's Table I).

=============  =================================================================
Parameter      Description
=============  =================================================================
``Q_i``        queue size for the i-th tier (threads / connections)
``C_i,OFF``    capacity of the i-th tier during OFF periods (req/s)
``C_i,ON``     degraded capacity during ON bursts (req/s)
``lambda_i``   legitimate request rate arriving at the i-th tier (req/s)
``D``          degradation index of the n-th tier's capacity (Eq. 2)
``l_i,UP``     time to fill the i-th tier's queue per burst (Eqs. 4-6)
``l_i,DOWN``   time to drain the i-th tier's queue per burst (Eq. 9)
``P_D``        damage period of a burst (Eq. 7)
``P_MB``       millibottleneck period of a burst (Eq. 10)
``rho``        overall damaged fraction under MemCA (Eq. 8)
=============  =================================================================

Tiers are indexed front (1) to back (n); the back-most tier is the
bottleneck the adversary co-locates with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["TierModel", "SystemModel", "AttackBurst", "ModelError"]


class ModelError(ValueError):
    """A model precondition (Condition 1/2 of Section IV-B) is violated."""


@dataclass(frozen=True)
class TierModel:
    """Steady-state parameters of one tier.

    ``capacity`` is C_i,OFF — the tier's service rate in req/s at full
    speed.  ``arrival_rate`` is lambda_i, the legitimate request rate
    entering this tier.
    """

    name: str
    queue_size: int
    capacity: float
    arrival_rate: float

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ModelError(f"queue_size must be >= 1: {self.queue_size}")
        if self.capacity <= 0:
            raise ModelError(f"capacity must be positive: {self.capacity}")
        if self.arrival_rate < 0:
            raise ModelError(f"negative arrival rate: {self.arrival_rate}")

    @property
    def utilization(self) -> float:
        """OFF-period utilization lambda_i / C_i,OFF."""
        return self.arrival_rate / self.capacity


@dataclass(frozen=True)
class SystemModel:
    """An n-tier system, front (index 0) to back (index n-1)."""

    tiers: Tuple[TierModel, ...]

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ModelError("a system needs at least one tier")
        for tier in self.tiers:
            if tier.utilization >= 1.0:
                raise ModelError(
                    f"tier {tier.name!r} is overloaded even without attack "
                    f"(rho={tier.utilization:.2f})"
                )

    @property
    def n(self) -> int:
        return len(self.tiers)

    @property
    def back(self) -> TierModel:
        return self.tiers[-1]

    def check_condition1(self) -> bool:
        """Condition 1: Q_1 > Q_2 > ... > Q_n (strictly decreasing)."""
        sizes = [t.queue_size for t in self.tiers]
        return all(a > b for a, b in zip(sizes, sizes[1:]))

    def require_condition1(self) -> None:
        if not self.check_condition1():
            sizes = [t.queue_size for t in self.tiers]
            raise ModelError(
                f"Condition 1 violated: queue sizes {sizes} are not "
                "strictly decreasing front-to-back"
            )


@dataclass(frozen=True)
class AttackBurst:
    """MemCA burst parameters: degradation index D, length L, interval I.

    ``D`` is the *retained* capacity fraction (Eq. 2): during a burst
    the bottleneck serves at ``C_on = D * C_off``.  ``L`` is the burst
    length in seconds and ``I`` the interval between burst starts.
    """

    D: float
    L: float
    I: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.D <= 1.0:
            raise ModelError(f"D outside [0,1]: {self.D}")
        if self.L <= 0:
            raise ModelError(f"L must be positive: {self.L}")
        if self.I <= self.L:
            raise ModelError(
                f"interval I={self.I} must exceed burst length L={self.L}"
            )

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the attack is ON."""
        return self.L / self.I
