"""Ablations of the design choices DESIGN.md calls out.

Each sweep answers a "what actually makes MemCA work?" question:

* burst length L — the damage/stealth trade-off (Eqs. 7 and 10);
* burst interval I — the damaged fraction rho = P_D / I (Eq. 8);
* degradation index D — the Condition 2 threshold (no fill-up once
  ``C_on`` exceeds the arrival rate);
* queue-size ordering — Condition 1 on vs off;
* synchronous RPC vs tandem — the amplification mechanism itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.report import format_table
from ..model.parameters import AttackBurst, ModelError
from ..model.attack_model import analyze
from .configs import MODEL_3TIER, ModelScenario, model_system
from .parallel import SweepCell, SweepExecutor, ensure_executor
from .runner import run_model

__all__ = [
    "SweepPoint",
    "SweepResult",
    "sweep_burst_length",
    "sweep_interval",
    "sweep_degradation",
    "condition1_ablation",
    "rpc_vs_tandem",
    "compare_attack_programs",
    "sweep_target_tier",
    "sweep_service_distribution",
    "dual_tier_attack",
    "sweep_switch_buffer",
    "sweep_ecn_threshold",
    "sweep_rto_schedule",
]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep configuration and its measured outcome."""

    label: str
    client_p95: float
    client_p99: float
    fraction_above_rto: float
    drops: int
    mean_mysql_util: float
    predicted_rho: Optional[float]


@dataclass
class SweepResult:
    title: str
    points: List[SweepPoint]

    def render(self) -> str:
        rows = [
            [
                p.label,
                p.client_p95,
                p.client_p99,
                p.fraction_above_rto,
                p.drops,
                p.mean_mysql_util,
                "-" if p.predicted_rho is None else f"{p.predicted_rho:.3f}",
            ]
            for p in self.points
        ]
        return format_table(
            ["config", "p95 (s)", "p99 (s)", ">RTO frac", "drops",
             "mysql util", "model rho"],
            rows,
            title=self.title,
            float_format="{:.3f}",
        )


def model_point_cell(spec) -> SweepPoint:
    """Sweep-cell entry point: one (scenario, label, mode) model point."""
    scenario, label, mode = spec
    return _measure_point(scenario, label, mode)


def rubbos_point_cell(spec) -> SweepPoint:
    """Sweep-cell entry point: one (scenario, label) RUBBoS point."""
    scenario, label = spec
    return _measure_rubbos_point(scenario, label)


def distribution_cell(spec) -> SweepPoint:
    """Sweep-cell entry point: one (distribution, duration) point."""
    distribution, duration = spec
    return _measure_distribution_point(distribution, duration)


def dual_tier_cell(spec) -> SweepPoint:
    """Sweep-cell entry point: one (targets, label, duration) case."""
    targets, label, duration = spec
    return _measure_dual_tier_point(targets, label, duration)


def _model_points(
    specs: Sequence[Tuple[ModelScenario, str, str]],
    executor: Optional[SweepExecutor],
) -> List[SweepPoint]:
    return ensure_executor(executor).map(
        [SweepCell.make("ablation-model-point", spec) for spec in specs]
    )


def _rubbos_points(
    specs: Sequence[Tuple[object, str]],
    executor: Optional[SweepExecutor],
) -> List[SweepPoint]:
    return ensure_executor(executor).map(
        [SweepCell.make("ablation-rubbos-point", spec) for spec in specs]
    )


def _measure_point(
    scenario: ModelScenario, label: str, mode: str = "attack-finite"
) -> SweepPoint:
    run = run_model(scenario, mode)
    rts = run.client_requests().column("response_time")
    system = model_system(scenario)
    try:
        predicted = analyze(
            system, scenario.burst, conservative=True
        ).rho
    except ModelError:
        predicted = 0.0
    return SweepPoint(
        label=label,
        client_p95=float(np.percentile(rts, 95)) if len(rts) else float("nan"),
        client_p99=float(np.percentile(rts, 99)) if len(rts) else float("nan"),
        fraction_above_rto=float(np.mean(rts > 1.0)) if len(rts) else 0.0,
        drops=run.app.front.drops,
        mean_mysql_util=run.mysql_monitor.series.mean(),
        predicted_rho=predicted,
    )


def sweep_burst_length(
    lengths: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
    scenario: ModelScenario = MODEL_3TIER,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Longer bursts: more damage per burst, longer millibottleneck."""
    specs = []
    for length in lengths:
        burst = AttackBurst(
            D=scenario.burst.D, L=length, I=scenario.burst.I
        )
        specs.append(
            (
                replace(scenario, burst=burst),
                f"L={length * 1e3:.0f}ms",
                "attack-finite",
            )
        )
    return SweepResult(
        "Ablation: burst length L (damage vs stealth)",
        _model_points(specs, executor),
    )


def sweep_interval(
    intervals: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    scenario: ModelScenario = MODEL_3TIER,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Longer intervals dilute rho = P_D / I."""
    specs = []
    for interval in intervals:
        burst = AttackBurst(
            D=scenario.burst.D, L=scenario.burst.L, I=interval
        )
        specs.append(
            (replace(scenario, burst=burst), f"I={interval:g}s",
             "attack-finite")
        )
    return SweepResult(
        "Ablation: burst interval I (rho dilution)",
        _model_points(specs, executor),
    )


def sweep_degradation(
    degradations: Sequence[float] = (0.05, 0.1, 0.3, 0.6),
    scenario: ModelScenario = MODEL_3TIER,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Condition 2: damage vanishes once C_on exceeds lambda.

    With lambda=300 and C_off=600, the threshold is D=0.5: above it the
    degraded bottleneck still keeps up and queues never fill.
    """
    specs = []
    for d in degradations:
        burst = AttackBurst(D=d, L=scenario.burst.L, I=scenario.burst.I)
        specs.append(
            (replace(scenario, burst=burst), f"D={d:g}", "attack-finite")
        )
    return SweepResult(
        "Ablation: degradation index D (Condition 2)",
        _model_points(specs, executor),
    )


def condition1_ablation(
    scenario: ModelScenario = MODEL_3TIER,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Queue ordering Q1 > Q2 > Q3 vs. an inverted back-heavy ordering.

    Condition 1 is what makes the closed-form fill *sequence* of
    Eqs. 4-6 well-defined; the DES shows the client-side damage is
    governed by the front tier's cap either way (an oversized
    bottleneck queue simply never visibly fills — its waiters are
    pinned upstream).  The inverted case therefore still hurts clients
    but breaks the model's per-tier fill accounting (rho is reported
    as 0 because Condition 1 fails).
    """
    ordered = scenario
    inverted = replace(
        scenario,
        queue_sizes=(scenario.queue_sizes[0], scenario.queue_sizes[1], 50),
    )
    q_o = ordered.queue_sizes
    q_i = inverted.queue_sizes
    return SweepResult(
        "Ablation: Condition 1 (queue-size ordering)",
        _model_points(
            [
                (ordered, f"Q={q_o} ordered", "attack-finite"),
                (inverted, f"Q={q_i} inverted", "attack-finite"),
            ],
            executor,
        ),
    )


def rpc_vs_tandem(
    scenario: ModelScenario = MODEL_3TIER,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """The amplification mechanism: synchronous RPC vs tandem stations."""
    return SweepResult(
        "Ablation: inter-tier coupling (sync RPC vs tandem)",
        _model_points(
            [
                (scenario, "sync RPC, finite queues", "attack-finite"),
                (scenario, "tandem stations", "tandem"),
            ],
            executor,
        ),
    )


def _measure_rubbos_point(scenario, label: str, attach=None) -> SweepPoint:
    """One RUBBoS-scenario sweep point (closed-loop, real workload)."""
    from .runner import run_rubbos  # local import: avoids a cycle

    run = run_rubbos(scenario, attach=attach)
    rts = run.client_requests().column("response_time")
    return SweepPoint(
        label=label,
        client_p95=float(np.percentile(rts, 95)) if len(rts) else float("nan"),
        client_p99=float(np.percentile(rts, 99)) if len(rts) else float("nan"),
        fraction_above_rto=float(np.mean(rts > 1.0)) if len(rts) else 0.0,
        drops=run.app.front.drops,
        mean_mysql_util=run.util_monitors["mysql"].series.mean(),
        predicted_rho=None,
    )


def compare_attack_programs(
    duration: float = 45.0,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """All three attack programs at equal burst schedules.

    Lock (scheduling-based contention) should dominate; bus saturation
    (bandwidth contention, 4 VMs) comes second; LLC cleansing
    (storage-based contention) is the gentlest — consistent with the
    Section III profiling and the cited prior-work taxonomy.
    """
    from .configs import PRIVATE_CLOUD  # local import: avoids a cycle

    specs = []
    for program, adversaries in (
        ("lock", 1), ("saturate", 4), ("cleanse", 4)
    ):
        scenario = replace(
            PRIVATE_CLOUD,
            name=f"programs/{program}",
            duration=duration,
            attack=replace(
                PRIVATE_CLOUD.attack,
                program=program,
                adversaries=adversaries,
            ),
        )
        specs.append((scenario, f"{program} x{adversaries} VM(s)"))
    return SweepResult(
        "Ablation: attack program comparison",
        _rubbos_points(specs, executor),
    )


def _measure_distribution_point(distribution, duration: float) -> SweepPoint:
    """Run the headline scenario under one service-demand distribution."""
    from .configs import PRIVATE_CLOUD

    scenario = replace(
        PRIVATE_CLOUD, duration=duration, distribution=distribution
    )
    return _measure_rubbos_point(scenario, distribution.name)


def sweep_service_distribution(
    duration: float = 45.0,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Does tail amplification survive non-exponential demands?

    The closed-form model assumes exponential service; the attack
    mechanism (queue overflow + thread pinning + TCP drops) does not
    care about the service law.  This sweep re-runs the headline
    scenario with deterministic, exponential, lognormal, and Pareto
    demands at equal means.
    """
    from ..workload.distributions import (
        BoundedPareto,
        Deterministic,
        Exponential,
        LogNormal,
    )

    distributions = (
        Deterministic(),
        Exponential(),
        LogNormal(sigma=1.0),
        BoundedPareto(alpha=1.8),
    )
    points = ensure_executor(executor).map(
        [
            SweepCell.make(
                "ablation-distribution", (distribution, duration)
            )
            for distribution in distributions
        ]
    )
    return SweepResult(
        "Ablation: service-demand distribution (equal means)", points
    )


def _measure_dual_tier_point(
    targets, label: str, duration: float
) -> SweepPoint:
    """Run one multi-adversary case; targets = ((tier, intensity, phase),)."""
    from ..core.attack import MemCAAttack
    from ..sim.rng import RandomStreams
    from .configs import PRIVATE_CLOUD

    spec = PRIVATE_CLOUD.attack
    scenario = replace(PRIVATE_CLOUD, duration=duration, attack=None)

    def add_attacks(run) -> None:
        streams = RandomStreams(scenario.seed)
        for index, (tier, intensity, phase) in enumerate(targets):
            attack = MemCAAttack(
                run.sim, run.deployment,
                length=spec.length,
                interval=spec.interval,
                intensity=intensity,
                target_tier=tier,
                adversary_name=f"adversary-{tier}",
                jitter=spec.jitter,
                rng=streams.get(f"attack-{index}"),
            )
            if phase > 0:
                run.sim.call_in(phase, attack.launch)
            else:
                attack.launch()

    return _measure_rubbos_point(scenario, label, attach=add_attacks)


def dual_tier_attack(
    duration: float = 45.0,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Can attack intensity be *split* across tiers?  (No.)

    "A MemCA attack only requires one or a few adversary VMs co-located
    with any component VMs in the critical path" — so compare: one
    full-intensity attacker on MySQL; two full-intensity attackers on
    MySQL and Tomcat staggered by half an interval; and two
    *half*-intensity attackers likewise.  The split case collapses:
    Condition 2 is a threshold (``C_on < lambda``), so halving the lock
    duty on each host leaves both tiers able to keep up — intensity
    does not add across hosts.  Full-intensity on two tiers, by
    contrast, doubles the damaged fraction (two millibottlenecks per
    interval).
    """
    from .configs import PRIVATE_CLOUD

    half = PRIVATE_CLOUD.attack.interval / 2.0
    cases = [
        ((("mysql", 1.0, 0.0),), "mysql @ full"),
        (
            (("mysql", 1.0, 0.0), ("tomcat", 1.0, half)),
            "mysql+tomcat @ full, staggered",
        ),
        (
            (("mysql", 0.55, 0.0), ("tomcat", 0.55, half)),
            "mysql+tomcat @ 0.55 (split)",
        ),
    ]
    points = ensure_executor(executor).map(
        [
            SweepCell.make("ablation-dual", (targets, label, duration))
            for targets, label in cases
        ]
    )
    return SweepResult(
        "Ablation: multi-tier adversaries (intensity does not split)",
        points,
    )


def _net_attack_variant(
    duration: float, name: str, intensity: Optional[float] = None,
    **overrides,
):
    """NET_ATTACK with its :class:`NetworkConfig` fields overridden."""
    from .configs import NET_ATTACK  # local import: avoids a cycle

    attack = NET_ATTACK.attack
    if intensity is not None:
        attack = replace(attack, intensity=intensity)
    return replace(
        NET_ATTACK,
        name=name,
        duration=duration,
        attack=attack,
        network=replace(NET_ATTACK.network, **overrides),
    )


def sweep_switch_buffer(
    buffers: Sequence[int] = (64, 128, 256, 512),
    duration: float = 45.0,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Fabric buffer depth vs NIC-saturation damage.

    Sweeps the switch port buffer with the NIC rings co-scaled at the
    stock 4:1 proportion (the attacked host's ring is the binding
    stage — the blast sits on the victim's NIC, not in the fabric
    core).  The attacker runs at intensity 0.96: a line-rate stream
    that holds 96% of the descriptors, so the victim's headroom is the
    remaining 4% *of whatever depth the hardware provides*.  Shallow
    buffers leave sub-slot headroom and drop-tail the burst into RTO
    stalls; each doubling of depth absorbs more of the microburst
    until the attack disappears into serialization delay.
    """
    specs = [
        (
            _net_attack_variant(
                duration,
                f"net/switch-buffer-{size}",
                intensity=0.96,
                switch_buffer=size,
                nic_buffer=max(1, size // 4),
            ),
            f"switch_buffer={size}",
        )
        for size in buffers
    ]
    return SweepResult(
        "Ablation: fabric buffer depth (drop-early vs absorb)",
        _rubbos_points(specs, executor),
    )


def sweep_ecn_threshold(
    thresholds: Sequence[Optional[float]] = (None, 0.25, 0.5, 0.95),
    duration: float = 45.0,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """ECN marking threshold against a descriptor-hold attack.

    The attacker runs at intensity 0.9 — rings 90% held, but enough
    headroom that nothing drops.  A threshold at or below the burst
    fill marks every traversal during ON windows and charges the 2 ms
    pacing penalty (the cwnd-halving analog); a threshold above the
    fill never fires.  Either way the drop count is untouched:
    admission is descriptor-driven, so receiver-side ECN cannot blunt
    a hold attack — it only decides whether victims also pay a pacing
    tax.  ``None`` is pure drop-tail.
    """
    specs = []
    for threshold in thresholds:
        label = (
            "drop-tail" if threshold is None else f"ecn@{threshold:g}"
        )
        specs.append(
            (
                _net_attack_variant(
                    duration,
                    f"net/{label}",
                    intensity=0.9,
                    ecn_threshold=threshold,
                ),
                label,
            )
        )
    return SweepResult(
        "Ablation: ECN threshold (marking vs drop-tail)",
        _rubbos_points(specs, executor),
    )


def sweep_rto_schedule(
    schedules: Sequence[Tuple[float, float]] = (
        (0.2, 1.0),
        (0.2, 2.0),
        (1.0, 2.0),
        (3.0, 2.0),
    ),
    duration: float = 45.0,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Link RTO floor and backoff factor vs tail amplification.

    The RFC 6298 1 s floor is the paper's amplification lever: each
    in-network drop stalls a pinned upstream thread for at least one
    RTO.  Sub-second floors retry *inside* the 0.5 s burst — there the
    backoff factor matters (backoff 1.0 hammers the held ring and
    fails fast; 2.0 spaces retries past the burst edge) — while floors
    at or above the burst length always clear it on the second attempt
    and amplify linearly with the floor.
    """
    specs = [
        (
            _net_attack_variant(
                duration,
                f"net/rto-{rto:g}x{backoff:g}",
                rto=rto,
                rto_backoff=backoff,
            ),
            f"rto={rto:g}s backoff={backoff:g}",
        )
        for rto, backoff in schedules
    ]
    return SweepResult(
        "Ablation: link RTO schedule (floor and backoff)",
        _rubbos_points(specs, executor),
    )


def sweep_target_tier(
    duration: float = 45.0,
    executor: Optional[SweepExecutor] = None,
) -> SweepResult:
    """Attack each tier's host in turn (threat model: any critical-path
    VM is a target).

    MySQL — the bottleneck — is the most damaging target; Tomcat hurts
    less (more headroom); Apache barely at all (its degraded capacity
    still exceeds the arrival rate: Condition 2 fails).
    """
    from .configs import PRIVATE_CLOUD  # local import: avoids a cycle

    specs = []
    for tier in ("mysql", "tomcat", "apache"):
        scenario = replace(
            PRIVATE_CLOUD,
            name=f"target/{tier}",
            duration=duration,
            attack=replace(PRIVATE_CLOUD.attack, target_tier=tier),
        )
        specs.append((scenario, f"target={tier}"))
    return SweepResult(
        "Ablation: which tier to co-locate with",
        _rubbos_points(specs, executor),
    )
