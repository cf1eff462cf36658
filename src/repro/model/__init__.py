"""Analytical queueing model: Table I parameters and Eqs. 2-10."""

from .attack_model import (
    StageAnalysis,
    analyze,
    degraded_capacity,
    fill_times,
    fill_times_conservative,
    predicted_percentile_curve,
    queue_trajectory,
)
from .mm1 import (
    mm1_mean_queue,
    mm1_mean_rt,
    mm1_rt_percentile,
    mm1_utilization,
    mm1k_blocking,
    mmc_erlang_c,
    mmc_mean_rt,
    tandem_mean_rt,
)
from .mva import MvaResult, Station, mva, saturation_population
from .parameters import AttackBurst, ModelError, SystemModel, TierModel
from .planner import AttackPlan, plan_attack

__all__ = [
    "AttackBurst",
    "AttackPlan",
    "ModelError",
    "MvaResult",
    "StageAnalysis",
    "Station",
    "SystemModel",
    "TierModel",
    "analyze",
    "degraded_capacity",
    "fill_times",
    "fill_times_conservative",
    "mm1_mean_queue",
    "mm1_mean_rt",
    "mm1_rt_percentile",
    "mm1_utilization",
    "mm1k_blocking",
    "mmc_erlang_c",
    "mmc_mean_rt",
    "mva",
    "saturation_population",
    "plan_attack",
    "predicted_percentile_curve",
    "queue_trajectory",
    "tandem_mean_rt",
]
