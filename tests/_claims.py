"""The paper's claims as predicates over experiment results.

Each function reads one result object of ``repro.experiments`` (or one
``repro.analysis.Replication``) and answers one claim of the paper or
of an extension.  The claim tests in ``tests/test_figures.py`` and the
reduced-scale experiment tests assert them; nothing in the package
needs them, so they live beside the tests.
"""

from typing import List

import numpy as np


# -- replication -------------------------------------------------------------


def cv(rep) -> float:
    """Coefficient of variation (relative spread)."""
    return rep.std / rep.mean if rep.mean else float("inf")


def all_above(rep, threshold: float) -> bool:
    return all(v > threshold for v in rep.values)


def all_below(rep, threshold: float) -> bool:
    return all(v < threshold for v in rep.values)


# -- percentile curves (Figs 2 and 7) ----------------------------------------


def at(curve, percentile: float) -> float:
    """A percentile curve's value at ``percentile`` (KeyError if absent)."""
    return curve.as_dict()[percentile]


# -- Fig 2 -------------------------------------------------------------------


def amplified(result, percentile: float = 95.0) -> bool:
    """Client tail exceeds the bottleneck tier's tail."""
    return at(result.curves["client"], percentile) > at(
        result.curves["mysql"], percentile
    )


# -- Fig 3: the three Section III findings -----------------------------------


def bandwidth(result, placement: str, attack: str, n: int) -> float:
    for point_n, bw in result.series[(placement, attack)]:
        if point_n == n:
            return bw
    raise KeyError(f"no point for n={n}")


def finding1_single_attacker_insufficient(result) -> bool:
    """Bandwidth left under 1 saturating VM stays well above lock."""
    saturate = bandwidth(result, "same-package", "saturate", 1)
    lock = bandwidth(result, "same-package", "lock", 1)
    return saturate > 2 * lock


def finding2_decreases_with_vms(result, placement: str) -> bool:
    points = result.series[(placement, "none")]
    values = [bw for _n, bw in sorted(points)]
    return all(a > b for a, b in zip(values, values[1:]))


def finding3_lock_beats_saturation(result) -> bool:
    return all(
        bandwidth(result, "same-package", "lock", n)
        < bandwidth(result, "same-package", "saturate", n)
        for n, _bw in result.series[("same-package", "lock")]
    )


# -- Fig 6 -------------------------------------------------------------------


def overflow_propagates(result) -> bool:
    """Attack model: every tier's queue reaches (close to) its cap."""
    return all(
        result.peak_occupancy("attack", tier) >= 0.9 * q
        for tier, q in zip(
            result.scenario.tier_names, result.scenario.queue_sizes
        )
    )


def tandem_confined_to_back(result) -> bool:
    """Tandem model: only the bottleneck station builds a big queue."""
    back = result.scenario.tier_names[-1]
    back_peak = result.peak_occupancy("tandem", back)
    return all(
        result.peak_occupancy("tandem", tier) < back_peak / 2
        for tier in result.scenario.tier_names[:-1]
    )


# -- Fig 7: the figure's three claims ----------------------------------------


def tandem_curves_overlap(result, percentile: float = 99.0) -> bool:
    """7a: client and all tier curves nearly coincide."""
    curves = result.cases["tandem"]
    values = [
        at(curves[name], percentile)
        for name in ("client",) + tuple(result.scenario.tier_names)
    ]
    return max(values) <= 1.5 * min(values) + 1e-3


def amplification_without_drops(result, percentile: float = 99.0) -> bool:
    """7b: client tail exceeds bottleneck tail, with no drops."""
    curves = result.cases["attack-infinite-front"]
    back = result.scenario.tier_names[-1]
    return (
        result.drops["attack-infinite-front"] == 0
        and at(curves["client"], percentile) > at(curves[back], percentile)
    )


def finite_queues_worst_for_clients(result, percentile: float = 99.0) -> bool:
    """7c: the finite-queue client peak dominates both other cases."""
    finite = at(result.cases["attack-finite"]["client"], percentile)
    return finite >= max(
        at(result.cases[c]["client"], percentile)
        for c in ("tandem", "attack-infinite-front")
    )


# -- Fig 9: panel assertions -------------------------------------------------


def transient_saturations(result, threshold: float = 0.95) -> int:
    """Count of distinct CPU-saturation episodes (panel b)."""
    return len(result.mysql_util.intervals_above(threshold))


def queues_propagate(result) -> bool:
    """Each burst pushes queueing beyond MySQL into Tomcat (panel c)."""
    mysql_cap = result.scenario.mysql_connections
    return result.queue_series["tomcat"].max() > mysql_cap


# -- Fig 11 ------------------------------------------------------------------


def saturation_leaves_signature(result) -> bool:
    return result.reports["saturate"].detected


def lock_is_invisible(result) -> bool:
    return not result.reports["lock"].detected


# -- Section IV-B model validation -------------------------------------------


def conservative_within(result, tolerance: float = 0.5) -> bool:
    """DES matches the conservative model within rel. tolerance."""
    for row in result.rows:
        m = row.measured
        if m.millibottleneck is None:
            return False
        pred = row.conservative.millibottleneck
        if abs(m.millibottleneck - pred) > tolerance * pred:
            return False
    return True


# -- controller, capacity, defenses, overhead --------------------------------


def epochs_to_goal(result):
    """1-based epoch whose filtered RT first met the goal, else None."""
    for index, epoch in enumerate(result.history):
        if (
            epoch.filtered_rt is not None
            and epoch.filtered_rt >= result.goals.rt_target
        ):
            return index + 1
    return None


def throughput_error(point) -> float:
    return abs(
        point.measured_throughput - point.predicted_throughput
    ) / point.predicted_throughput


def capacity_within(result, tolerance: float = 0.15) -> bool:
    return all(throughput_error(p) <= tolerance for p in result.points)


def p95_between(result, t0: float, t1: float) -> float:
    """Median of the defense timeline's window p95s starting in [t0, t1)."""
    samples = [
        p95
        for start, p95, _n in result.timeline
        if t0 <= start < t1
    ]
    if not samples:
        raise ValueError(f"no windows in [{t0}, {t1})")
    return float(np.median(samples))


def dial_protects(result) -> bool:
    """DIAL pushes the tail well below the static-dispatch tail."""
    return (
        result.cases["dial"].client_p95
        < 0.5 * result.cases["static"].client_p95
    )


def sweet_spots(result) -> List:
    """Granularities both within budget and attack-revealing.

    Non-empty in the per-VM setting — the opening the targeted
    defense exploits.  At fleet scale, multiply the overhead by the
    metric count and VM density (see :func:`fleet_overhead`) and the
    set empties out, which is the paper's argument for why providers
    stay coarse.
    """
    return [
        p for p in result.points
        if p.within_budget and p.sees_the_attack
    ]


def fleet_overhead(point, vms_per_host: int = 6) -> float:
    """Scale one VM's agent cost to provider-side host monitoring.

    The provider's agent collects for every resident VM (plus the
    host itself), so the per-host cost is roughly the per-VM cost
    times the VM density — which is what empties the sweet spot at
    fleet scale.
    """
    return point.overhead_fraction * vms_per_host
