"""Closed-form MemCA attack analysis (Eqs. 2-10 of Section IV-B).

Given a :class:`SystemModel` and an :class:`AttackBurst`, compute the
three queueing stages of a burst:

* **build-up** — queues fill from the bottleneck tier upstream
  (Eqs. 4-6); the total build-up time is ``sum(l_i_up)``;
* **hold-on** — every queue is full; its length is the damage period
  ``P_D = L - sum(l_i_up)`` (Eq. 7) during which requests are dropped
  and clients eat TCP retransmissions;
* **fade-off** — after the burst the bottleneck drains at
  ``C_off - lambda_n`` (Eq. 9); the bottleneck stays saturated for the
  millibottleneck period ``P_MB = L + l_n_down`` (Eq. 10).

The damaged fraction over time is ``rho = P_D / I`` (Eq. 8) — the
quantile above which the client percentile curve jumps to
retransmission territory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .parameters import AttackBurst, ModelError, SystemModel

__all__ = [
    "StageAnalysis",
    "degraded_capacity",
    "fill_times",
    "fill_times_conservative",
    "analyze",
    "queue_trajectory",
]


def degraded_capacity(system: SystemModel, burst: AttackBurst) -> float:
    """C_n,ON = D * C_n,OFF (Eq. 3)."""
    return burst.D * system.back.capacity


def fill_times(system: SystemModel, burst: AttackBurst) -> List[float]:
    """Per-tier queue fill-up times ``l_i,UP``, front-to-back (Eqs. 4-6).

    Tier ``n`` fills first at rate ``lambda_n - C_n,ON``; each upstream
    tier ``i`` then fills its *remaining* ``Q_i - Q_{i+1}`` slots (its
    other threads are pinned by queued downstream requests) at the
    aggregate rate ``sum_{j>=i} lambda_j - C_n,ON``.

    Raises :class:`ModelError` if Condition 1 or Condition 2 fails.
    """
    system.require_condition1()
    c_on = degraded_capacity(system, burst)
    tiers = system.tiers
    n = len(tiers)
    if tiers[-1].arrival_rate <= c_on:
        raise ModelError(
            "Condition 2 violated: attack too weak, "
            f"lambda_n={tiers[-1].arrival_rate} <= C_n,ON={c_on:.1f}"
        )
    times = [0.0] * n
    cumulative_arrivals = 0.0
    for i in range(n - 1, -1, -1):
        cumulative_arrivals += tiers[i].arrival_rate
        if i == n - 1:
            slots = tiers[i].queue_size
        else:
            slots = tiers[i].queue_size - tiers[i + 1].queue_size
        rate = cumulative_arrivals - c_on
        if rate <= 0:
            raise ModelError(
                f"fill rate non-positive at tier {tiers[i].name!r}"
            )
        times[i] = slots / rate
    return times


def fill_times_conservative(
    system: SystemModel, burst: AttackBurst
) -> List[float]:
    """Flow-conservation variant of the fill-up times.

    The paper's Eqs. 5-6 sum the per-tier arrival rates
    (``lambda_{n-1} + lambda_n`` etc.), modelling independent exogenous
    streams entering each tier.  In a front-entry RPC system the same
    requests traverse every tier, so each tier's occupancy grows at the
    *net* rate ``lambda - C_n,ON`` once its downstream is full.  The
    DES matches this variant; the paper's own wording ("approximately")
    acknowledges the approximation.  Both are provided so the
    ``model_validation`` table can quantify the difference.
    """
    system.require_condition1()
    c_on = degraded_capacity(system, burst)
    tiers = system.tiers
    n = len(tiers)
    front_rate = tiers[0].arrival_rate
    if front_rate <= c_on:
        raise ModelError(
            "Condition 2 violated: attack too weak, "
            f"lambda={front_rate} <= C_n,ON={c_on:.1f}"
        )
    times = [0.0] * n
    for i in range(n - 1, -1, -1):
        if i == n - 1:
            slots = tiers[i].queue_size
        else:
            slots = tiers[i].queue_size - tiers[i + 1].queue_size
        times[i] = slots / (front_rate - c_on)
    return times


@dataclass(frozen=True)
class StageAnalysis:
    """The full burst decomposition plus the paper's impact metrics."""

    burst: AttackBurst
    #: Per-tier fill-up times, front-to-back (seconds).
    fill_up: Tuple[float, ...]
    #: Total build-up time sum(l_i,UP).
    build_up: float
    #: Damage period P_D (Eq. 7); 0 if the burst ends before fill-up.
    damage_period: float
    #: Bottleneck drain time l_n,DOWN (Eq. 9).
    drain_time: float
    #: Millibottleneck period P_MB (Eq. 10).
    millibottleneck: float
    #: Damaged fraction rho = P_D / I (Eq. 8).
    rho: float

    @property
    def damaging(self) -> bool:
        """Whether bursts are long enough to reach the hold-on stage."""
        return self.damage_period > 0


def analyze(
    system: SystemModel, burst: AttackBurst, conservative: bool = False
) -> StageAnalysis:
    """Run the Eq. 2-10 pipeline for one parameterization.

    ``conservative=True`` uses the flow-conservation fill times (which
    the DES matches) instead of the paper's Eqs. 5-6.
    """
    if conservative:
        fills = fill_times_conservative(system, burst)
    else:
        fills = fill_times(system, burst)
    build_up = sum(fills)
    damage = max(0.0, burst.L - build_up)
    back = system.back
    drain_rate = back.capacity - back.arrival_rate
    if drain_rate <= 0:
        raise ModelError(
            "bottleneck cannot drain: lambda_n >= C_n,OFF"
        )
    drain = back.queue_size / drain_rate
    millibottleneck = burst.L + drain
    rho = damage / burst.I
    return StageAnalysis(
        burst=burst,
        fill_up=tuple(fills),
        build_up=build_up,
        damage_period=damage,
        drain_time=drain,
        millibottleneck=millibottleneck,
        rho=rho,
    )


def queue_trajectory(
    system: SystemModel,
    burst: AttackBurst,
    tier_index: int,
    times: List[float],
    burst_start: float = 0.0,
    conservative: bool = True,
) -> List[float]:
    """Predicted queue length of one tier over a single burst cycle.

    Piecewise-linear: flat near zero before the burst, rising once the
    downstream tiers have filled, flat at Q_i during hold-on, draining
    after the burst ends.  ``times`` are absolute times; the burst is
    ON during ``[burst_start, burst_start + L)``.

    For upstream tiers the visible queue length counts the tier's
    occupied slots, which includes threads pinned by downstream queues,
    so tier i rises from Q_{i+1} to Q_i during its fill window.
    """
    analysis = analyze(system, burst, conservative=conservative)
    tiers = system.tiers
    n = len(tiers)
    if not 0 <= tier_index < n:
        raise ModelError(f"tier_index out of range: {tier_index}")
    # Time at which tier i starts filling: after all tiers below it.
    start_fill = burst_start + sum(analysis.fill_up[tier_index + 1:])
    fill_len = analysis.fill_up[tier_index]
    floor = tiers[tier_index + 1].queue_size if tier_index < n - 1 else 0
    ceiling = tiers[tier_index].queue_size
    burst_end = burst_start + burst.L
    back = system.back
    drain_rate = back.capacity - back.arrival_rate
    out = []
    for t in times:
        if t < start_fill:
            level = floor if t >= burst_start else 0.0
        elif t < start_fill + fill_len:
            level = floor + (ceiling - floor) * (t - start_fill) / fill_len
        elif t < burst_end:
            level = ceiling
        else:
            level = max(0.0, ceiling - drain_rate * (t - burst_end))
        out.append(float(min(ceiling, max(0.0, level))))
    return out
