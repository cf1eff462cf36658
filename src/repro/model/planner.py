"""Attack-parameter planning: inverting the Eq. 2-10 model.

Section IV-B closes with: "based on the predefined attack goals, we can
also calculate attack parameters if we know system parameters."  This
module does that inversion: given a damage goal (a target quantile that
must exceed the TCP RTO) and a stealth goal (a millibottleneck ceiling),
derive a feasible ``(D, L, I)``.

The constraints:

* stealth:  ``P_MB = L + l_down <= stealth_limit``  bounds L above;
* feasibility: ``L > build_up(D)``  (the burst must reach hold-on);
* damage:  ``rho = P_D / I >= 1 - quantile``  bounds I above.

The planner picks the largest stealthy ``L`` (longest damage period per
burst) and then the largest ``I`` that still meets the damage goal (the
fewest bursts — the quietest attack achieving the goal).
"""

from __future__ import annotations

from dataclasses import dataclass

from .attack_model import StageAnalysis, analyze, fill_times
from .parameters import AttackBurst, ModelError, SystemModel

__all__ = ["AttackPlan", "plan_attack"]


@dataclass(frozen=True)
class AttackPlan:
    """A feasible parameterization plus its predicted impact."""

    burst: AttackBurst
    analysis: StageAnalysis
    target_quantile: float
    stealth_limit: float


def plan_attack(
    system: SystemModel,
    D: float = 0.1,
    target_quantile: float = 0.95,
    stealth_limit: float = 1.0,
    min_interval: float = 0.5,
) -> AttackPlan:
    """Derive (L, I) for a given degradation index and the two goals.

    ``target_quantile`` — e.g. 0.95 to push the 95th percentile above
    the TCP RTO.  ``stealth_limit`` — millibottleneck ceiling in
    seconds (the monitoring granularity to hide below).
    ``min_interval`` — floor on I so the attack never degenerates into
    a flood (too-short I "makes the attack similar to traditional
    flooding DDoS", Section IV-A).

    Raises :class:`ModelError` when no (L, I) satisfies both goals for
    this D, with a message saying which constraint failed.
    """
    if not 0 < target_quantile < 1:
        raise ModelError(f"quantile outside (0,1): {target_quantile}")
    if stealth_limit <= 0:
        raise ModelError(f"stealth_limit must be positive: {stealth_limit}")

    probe = AttackBurst(D=D, L=stealth_limit, I=stealth_limit * 10)
    fills = fill_times(system, probe)  # validates Conditions 1 and 2
    build_up = sum(fills)

    back = system.back
    drain = back.queue_size / (back.capacity - back.arrival_rate)
    max_length = stealth_limit - drain
    if max_length <= build_up:
        raise ModelError(
            "infeasible: the stealth limit leaves no room for hold-on "
            f"(build-up {build_up * 1e3:.0f} ms + drain {drain * 1e3:.0f} ms "
            f">= limit {stealth_limit * 1e3:.0f} ms); "
            "lower D or relax the stealth limit"
        )
    length = max_length
    damage = length - build_up
    required_rho = 1.0 - target_quantile
    interval = damage / required_rho
    if interval <= length or interval < min_interval:
        raise ModelError(
            "infeasible: meeting the damage goal requires bursts more "
            f"frequent than allowed (needed I={interval * 1e3:.0f} ms, "
            f"L={length * 1e3:.0f} ms, flood floor "
            f"{min_interval * 1e3:.0f} ms); raise the stealth limit or "
            "lower D"
        )
    burst = AttackBurst(D=D, L=length, I=interval)
    return AttackPlan(
        burst=burst,
        analysis=analyze(system, burst),
        target_quantile=target_quantile,
        stealth_limit=stealth_limit,
    )
