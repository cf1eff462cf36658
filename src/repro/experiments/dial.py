"""DIAL evaluation: does interference-aware balancing blunt MemCA?

Deploys the 3-tier system with the MySQL tier replicated across two
hosts, attacks ONE replica's host with the standard lock bursts, and
compares three cases:

* no attack — the healthy baseline;
* attack, static 50/50 dispatch — half the queries hit the stalled
  replica during each burst, pin upstream threads, and the tail
  amplifies as usual;
* attack + DIAL — the balancer drains load off the interfered replica
  within a few epochs; upstream pinning (the amplification fuel) drops
  with it.

This is the user-centric counterpoint to the provider-side migration
defense: no host access, no cause attribution, just latency feedback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.report import format_table
from ..cloud.dial import DialBalancer
from ..core.burst import OnOffAttacker
from ..core.programs import MemoryLockAttack
from ..hardware.memory import MemorySubsystem
from ..hardware.topology import XEON_E5_2603_V3, Host
from ..hardware.vm import VirtualMachine
from ..monitoring.sampler import UtilizationMonitor
from ..ntier.app import NTierApplication
from ..ntier.client import UserPopulation
from ..ntier.replicated import ReplicatedTier
from ..ntier.tier import Tier
from ..sim.core import Simulator, WorldCollector
from ..sim.rng import RandomStreams
from ..workload.rubbos import RubbosWorkload
from .configs import PRIVATE_CLOUD, RubbosScenario
from .summary import completed_after_warmup

__all__ = ["DialCase", "DialResult", "run_dial"]

CASES = ("no-attack", "static", "dial")


@dataclass(frozen=True)
class DialCase:
    """Outcome of one balancing policy under (or without) attack."""

    case: str
    client_p95: float
    client_p99: float
    fraction_above_rto: float
    drops: int
    #: Final dispatch weights (attacked replica first).
    final_weights: Tuple[float, ...]
    #: Fraction of queries sent to the attacked replica overall.
    attacked_share: float


@dataclass
class DialResult:
    scenario: RubbosScenario
    cases: Dict[str, DialCase]

    def render(self) -> str:
        rows = []
        for name in CASES:
            case = self.cases[name]
            rows.append(
                [
                    name,
                    f"{case.client_p95 * 1e3:.0f} ms",
                    f"{case.client_p99 * 1e3:.0f} ms",
                    f"{case.fraction_above_rto:.1%}",
                    case.drops,
                    "/".join(f"{w:.2f}" for w in case.final_weights),
                    f"{case.attacked_share:.0%}",
                ]
            )
        return format_table(
            ["case", "p95", "p99", ">RTO", "drops",
             "weights (attacked/healthy)", "load on attacked"],
            rows,
            title=(
                "DIAL evaluation: replicated MySQL (2x), lock bursts on "
                "replica A's host"
            ),
        )

    @property
    def dial_protects(self) -> bool:
        """DIAL pushes the tail well below the static-dispatch tail."""
        return (
            self.cases["dial"].client_p95
            < 0.5 * self.cases["static"].client_p95
        )


def _build(scenario: RubbosScenario, with_attack: bool,
           with_dial: bool, seed_offset: int = 0):
    streams = RandomStreams(scenario.seed + seed_offset)
    sim = Simulator()

    def make_vm(name: str):
        host = Host(f"host-{name}", scenario.host_spec)
        memory = MemorySubsystem(host)
        vm = VirtualMachine(sim, name, vcpus=2, mem_demand_mbps=2000.0)
        vm.attach(host, memory, package=0)
        return host, memory, vm

    _h1, _m1, apache_vm = make_vm("apache")
    _h2, _m2, tomcat_vm = make_vm("tomcat")
    host_a, memory_a, mysql_a_vm = make_vm("mysql-a")
    _hb, _mb, mysql_b_vm = make_vm("mysql-b")

    apache = Tier(sim, "apache", apache_vm,
                  concurrency=scenario.apache_threads,
                  max_backlog=scenario.apache_backlog)
    tomcat = Tier(sim, "tomcat", tomcat_vm,
                  concurrency=scenario.tomcat_threads)
    # Each replica gets the full connection budget: replication adds
    # capacity, it does not split the original pool.
    replica_a = Tier(sim, "mysql", mysql_a_vm,
                     concurrency=scenario.mysql_connections)
    replica_b = Tier(sim, "mysql", mysql_b_vm,
                     concurrency=scenario.mysql_connections)
    replicated = ReplicatedTier(
        sim, "mysql", [replica_a, replica_b],
        rng=streams.get("dispatch"),
    )
    app = NTierApplication(sim, [apache, tomcat, replicated])

    workload = RubbosWorkload(rng=streams.get("workload"))
    UserPopulation(
        sim, app, workload.make_request,
        users=scenario.users, think_time=scenario.think_time,
        rng=streams.get("users"),
    ).start()

    attacker = None
    if with_attack:
        host_a.place("adversary", package=0)
        attacker = OnOffAttacker(
            sim, memory_a, "adversary", MemoryLockAttack(),
            length=scenario.attack.length,
            interval=scenario.attack.interval,
            jitter=scenario.attack.jitter,
            rng=streams.get("attack"),
        )
        attacker.start()

    balancer = None
    if with_dial:
        balancer = DialBalancer(sim, replicated, epoch=1.0)
        balancer.start()
    return sim, app, replicated, attacker, balancer


def run_dial(scenario: Optional[RubbosScenario] = None) -> DialResult:
    """Run the three cases against identical replicated deployments."""
    from dataclasses import replace

    base = scenario or replace(PRIVATE_CLOUD, duration=60.0)
    return DialResult(
        scenario=base, cases={name: _run_case(base, name) for name in CASES}
    )


def _run_case(base: RubbosScenario, name: str) -> DialCase:
    """Build and run one case; its world dies when this returns."""
    with WorldCollector() as collector:
        sim, app, replicated, _attacker, _balancer = _build(
            base,
            with_attack=(name != "no-attack"),
            with_dial=(name == "dial"),
        )
        collector.run(sim, until=base.duration)
    requests = completed_after_warmup(app.completed, base.warmup)
    rts = np.array([r.response_time for r in requests])
    total_dispatched = sum(replicated.dispatched) or 1
    return DialCase(
        case=name,
        client_p95=float(np.percentile(rts, 95)),
        client_p99=float(np.percentile(rts, 99)),
        fraction_above_rto=float(np.mean(rts > 1.0)),
        drops=app.front.drops,
        final_weights=tuple(
            round(float(w), 4) for w in replicated.weights
        ),
        attacked_share=replicated.dispatched[0] / total_dispatched,
    )
