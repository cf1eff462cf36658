"""Analytical queueing model: Table I parameters and Eqs. 2-10."""

from .attack_model import (
    StageAnalysis,
    analyze,
    degraded_capacity,
    fill_times,
    fill_times_conservative,
    queue_trajectory,
)
from .mm1 import mm1_mean_rt
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
    "mm1_mean_rt",
    "mva",
    "saturation_population",
    "plan_attack",
    "queue_trajectory",
]
