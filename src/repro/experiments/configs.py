"""Named experiment configurations.

Two families of scenarios mirror the paper's two evaluation vehicles:

* **RUBBoS scenarios** — the closed-loop 3-tier benchmark (Figs 2, 9,
  10, 11) on either the private-cloud host (Xeon E5-2603 v3) or the
  EC2 dedicated host (E5-2680).  The paper drives 3500 users with 7 s
  think time (~500 req/s); we default to 3000 users at the same think
  time (~430 req/s), which keeps the MySQL tier at the paper's
  moderate (~50-55%) baseline utilization.  Population size matters
  beyond the mean rate: a too-small population self-throttles during
  bursts (stuck users stop generating arrivals), weakening the attack
  — so scenarios keep the user count at the paper's order of
  magnitude rather than scaling it down.
* **Model scenarios** — the open-loop queueing-network configuration of
  the JMT analysis (Figs 6, 7): Poisson arrivals, exponential service,
  fixed D=0.1, L=100 ms, I=2 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..cloud.platform import DeploymentConfig, rubbos_3tier
from ..hardware.topology import EC2_E5_2680, XEON_E5_2603_V3, CpuSpec
from ..model.parameters import AttackBurst, SystemModel, TierModel
from ..net import NetworkConfig
from ..sim.hybrid import HybridConfig
from ..workload.distributions import DemandDistribution

__all__ = [
    "AttackSpec",
    "HybridConfig",
    "NetworkConfig",
    "RubbosScenario",
    "ModelScenario",
    "PRIVATE_CLOUD",
    "EC2_CLOUD",
    "NET_BASELINE",
    "NET_ATTACK",
    "STEALTH_DUAL",
    "MODEL_3TIER",
    "SCENARIOS",
    "model_system",
]


@dataclass(frozen=True)
class AttackSpec:
    """MemCA parameters for a scenario (Fig 4 / Eq 1)."""

    #: "lock" / "saturate" / "cleanse" target the memory subsystem;
    #: "nic" targets the shared NIC rings (requires a scenario with
    #: ``network=``); "lock+nic" launches both in lock-step — the
    #: combined cross-resource attack each per-resource sampler misses.
    program: str = "lock"
    length: float = 0.5
    interval: float = 2.0
    intensity: float = 1.0
    jitter: float = 0.2
    #: Co-located adversary VMs bursting in lock-step.  One suffices
    #: for the lock attack; bus saturation needs several (Section III
    #: finding 1: a single VM cannot saturate the memory bus).
    adversaries: int = 1
    #: Tier whose host the adversaries co-locate with (None = the
    #: back-most tier, MySQL — the paper's choice since it is the
    #: bottleneck; any tier on the critical path is attackable).
    target_tier: Optional[str] = None


@dataclass(frozen=True)
class RubbosScenario:
    """A closed-loop RUBBoS run, optionally under attack."""

    name: str
    host_spec: CpuSpec = XEON_E5_2603_V3
    users: int = 2600
    think_time: float = 7.0
    duration: float = 60.0
    warmup: float = 8.0
    seed: int = 7
    apache_threads: int = 70
    apache_backlog: int = 20
    tomcat_threads: int = 40
    mysql_connections: int = 12
    #: vCPUs per tier VM (scaled by :meth:`with_users`).
    tier_vcpus: int = 2
    attack: Optional[AttackSpec] = AttackSpec()
    monitor_interval: float = 0.05
    queue_sample_interval: float = 0.02
    #: Hybrid fluid/DES configuration; ``None`` = full-DES run.  Being
    #: a scenario field, it flows into ``stable_hash`` automatically,
    #: so the run cache can never serve a full-DES result for a hybrid
    #: cell (or one hybrid fraction for another).
    hybrid: Optional[HybridConfig] = None
    #: Inter-tier network model; ``None`` (the default) keeps the fixed
    #: per-hop ``net_delay`` and is byte-identical to pre-network runs
    #: (same neutrality discipline as tracing/telemetry/hybrid).  A
    #: :class:`~repro.net.NetworkConfig` routes every tier→tier RPC
    #: through the finite queue chain and, like ``hybrid``, flows into
    #: ``stable_hash`` for the sweep cache.
    network: Optional[NetworkConfig] = None
    #: Per-request service-demand law; ``None`` keeps the workload's
    #: exponential demands.  A scenario field, so it flows into
    #: ``stable_hash`` and the sweep cache key like ``hybrid``.
    distribution: Optional[DemandDistribution] = None

    def deployment_config(self) -> DeploymentConfig:
        """The full-chain 3-tier deployment this scenario describes."""
        return rubbos_3tier(
            apache_threads=self.apache_threads,
            apache_backlog=self.apache_backlog,
            tomcat_threads=self.tomcat_threads,
            mysql_connections=self.mysql_connections,
            host_spec=self.host_spec,
            vcpus=self.tier_vcpus,
        )

    def with_users(self, users: int) -> "RubbosScenario":
        """Rescale the scenario to ``users`` without moving the knee.

        ``users`` alone is a footgun: the population size sets the
        arrival rate (N/Z), so changing it without touching capacities
        moves the operating point — a 10× population saturates the
        deployment outright, and a 0.1× one self-throttles so hard the
        attack looks harmless.  This helper co-scales every tier
        capacity (thread/connection pools, accept backlog, vCPUs) by
        the same ratio, keeping per-tier utilization, Condition 1
        (Q_apache > Q_tomcat > Q_mysql) and the saturation knee at the
        same *relative* position — the paper's operating point at any
        scale.

        Attack intensity is deliberately *not* diluted: the memory
        attack's degradation factor is dimensionless (lock duty /
        bandwidth share), so the same intensity degrades the scaled
        host to the same C_on/C_off ratio, and Condition 2
        (λ > C_on) is preserved automatically because λ and C_on both
        scale with N.  EXPERIMENTS.md: "Condition 2 is a per-host
        threshold, not a budget to distribute."
        """
        if users < 1:
            raise ValueError(f"users must be >= 1, got {users}")
        ratio = users / self.users

        def scaled(value: int) -> int:
            return max(1, int(round(value * ratio)))

        return replace(
            self,
            users=users,
            apache_threads=scaled(self.apache_threads),
            apache_backlog=scaled(self.apache_backlog),
            tomcat_threads=scaled(self.tomcat_threads),
            mysql_connections=scaled(self.mysql_connections),
            tier_vcpus=scaled(self.tier_vcpus),
        )


#: Fig 2(b)/9/10/11 environment: the private OpenStack/KVM cloud.
PRIVATE_CLOUD = RubbosScenario(name="private-cloud")

#: Fig 2(a) environment: EC2 dedicated host (slightly beefier CPU).
EC2_CLOUD = RubbosScenario(
    name="amazon-ec2", host_spec=EC2_E5_2680, seed=11
)

#: Network-routed RPCs, no attacker: the loss-free reference point for
#: the net-vs-mem amplification comparison.
NET_BASELINE = RubbosScenario(
    name="net-baseline", network=NetworkConfig(), attack=None, seed=17
)

#: The NIC-contention attack: transient ring-saturation bursts against
#: the MySQL host's shared NIC, same ON-OFF rhythm as the memory
#: attacks.
NET_ATTACK = RubbosScenario(
    name="net-attack",
    network=NetworkConfig(),
    attack=AttackSpec(program="nic"),
    seed=17,
)

#: The combined cross-resource attack: memory lock and NIC saturation
#: in lock-step at *half* intensity each — each resource's sampler sees
#: a modest, deniable load (saturated fractions below the alarm line)
#: while the stacked contention still more than doubles the tail.
STEALTH_DUAL = RubbosScenario(
    name="stealth-dual",
    network=NetworkConfig(),
    attack=AttackSpec(program="lock+nic", intensity=0.5, jitter=0.0),
    seed=17,
)

#: Every registered RUBBoS scenario, by name.  The scenario-matrix
#: conformance suite (tests/test_scenario_matrix.py) and the CLI
#: ``trace`` / ``monitor`` / ``run`` verbs discover scenarios here, so
#: a new family is automatically held to the shared invariants.
SCENARIOS: Dict[str, RubbosScenario] = {
    "private-cloud": PRIVATE_CLOUD,
    "ec2": EC2_CLOUD,
    "net-baseline": NET_BASELINE,
    "net-attack": NET_ATTACK,
    "stealth-dual": STEALTH_DUAL,
}


@dataclass(frozen=True)
class ModelScenario:
    """Open-loop queueing-network scenario (the JMT analysis)."""

    name: str = "jmt-3tier"
    arrival_rate: float = 300.0
    #: Per-tier service rates C_i,OFF in req/s, front-to-back.
    service_rates: Tuple[float, ...] = (3000.0, 1200.0, 600.0)
    #: Per-tier queue sizes Q_i (Condition 1: strictly decreasing).
    #: Sized so a 100 ms burst at D=0.1 completes the cross-tier
    #: fill-up with time to spare for the hold-on stage: the whole
    #: system accumulates at lambda - C_on = 240 req/s, so the front
    #: queue (14) fills ~60 ms into a burst.
    queue_sizes: Tuple[int, ...] = (14, 7, 3)
    tier_names: Tuple[str, ...] = ("apache", "tomcat", "mysql")
    burst: AttackBurst = field(
        default_factory=lambda: AttackBurst(D=0.1, L=0.1, I=2.0)
    )
    duration: float = 60.0
    warmup: float = 4.0
    seed: int = 13
    #: No extra accept queue: the front tier drops at Q_1 exactly.
    apache_backlog: int = 0


#: The Fig 6/7 parameterization (D=0.1, L=100 ms, I=2 s).
MODEL_3TIER = ModelScenario()


def model_system(scenario: ModelScenario) -> SystemModel:
    """The analytical SystemModel matching a ModelScenario.

    Every tier sees the full arrival stream (all pages traverse all
    tiers in the model experiments), so lambda_i = lambda for all i.
    """
    tiers = tuple(
        TierModel(
            name=name,
            queue_size=q,
            capacity=c,
            arrival_rate=scenario.arrival_rate,
        )
        for name, q, c in zip(
            scenario.tier_names, scenario.queue_sizes, scenario.service_rates
        )
    )
    return SystemModel(tiers=tiers)
