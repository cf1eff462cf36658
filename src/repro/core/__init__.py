"""MemCA — the paper's primary contribution.

Attack programs (bus saturation / memory lock), the ON-OFF burst engine
(R, L, I), MemCA-FE (executor/reporter), MemCA-BE (prober + Kalman
commander), and the :class:`MemCAAttack` orchestrator measuring
``Effect = A(R, L, I)``.
"""

from .attack import AttackEffect, MemCAAttack
from .backend import Commander, CommanderEpoch, ControlGoals, MemCABackend
from .baselines import FloodingAttack, PulsatingAttack
from .burst import BurstRecord, OnOffAttacker
from .control import ScalarKalmanFilter
from .frontend import FrontendReport, MemCAFrontend
from .programs import (
    AttackProgram,
    LLCCleansingAttack,
    MemoryBusSaturation,
    MemoryLockAttack,
)

__all__ = [
    "AttackEffect",
    "AttackProgram",
    "BurstRecord",
    "Commander",
    "CommanderEpoch",
    "ControlGoals",
    "FloodingAttack",
    "FrontendReport",
    "LLCCleansingAttack",
    "MemCAAttack",
    "MemCABackend",
    "MemCAFrontend",
    "MemoryBusSaturation",
    "MemoryLockAttack",
    "OnOffAttacker",
    "PulsatingAttack",
    "ScalarKalmanFilter",
]
