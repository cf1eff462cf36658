"""Co-residency study: how hard is the paper's precondition?

The paper treats co-location as solved prior work (success rates
0.6-0.89, dollars of cost).  This experiment reproduces that step on
our substrate: a victim web VM lives somewhere in a provider zone; the
adversary launches candidate VMs in batches and runs the *causal
probe* (burst + watch the victim's public latency) to find a
co-resident one.  Reported: success rate, VMs launched, and cost, as a
function of zone size and placement strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

import numpy as np

from ..analysis.report import format_table
from ..cloud.placement import (
    CampaignResult,
    CausalCoResidencyProbe,
    CloudZone,
    CoLocationCampaign,
)
from ..hardware.vm import VirtualMachine
from ..ntier.app import NTierApplication
from ..ntier.client import fetch
from ..ntier.request import Request
from ..ntier.tier import Tier
from ..sim.core import Simulator, WorldCollector
from ..sim.rng import RandomStreams
from ..workload.generator import OpenLoopGenerator, exponential_request_factory
from .parallel import SweepCell, SweepExecutor, ensure_executor

__all__ = ["PlacementStudyRow", "PlacementStudy", "run_campaign",
           "run_placement_study"]


def _build_victim(sim: Simulator, zone: CloudZone, streams: RandomStreams):
    """A single-tier victim web app placed by the zone scheduler."""
    index = zone.launch("victim")
    vm = VirtualMachine(sim, "victim", vcpus=1, mem_demand_mbps=2000.0)
    vm.attach(zone.hosts[index], zone.memories[index], package=0)
    tier = Tier(sim, "victim", vm, concurrency=8, net_delay=0.0)
    app = NTierApplication(sim, [tier])
    factory = exponential_request_factory(
        {"victim": 0.005}, streams.get("victim-demands")
    )
    generator = OpenLoopGenerator(
        sim, app, factory, rate=100.0, rng=streams.get("victim-arrivals")
    )
    generator.start()
    return app, factory


def run_campaign(
    n_hosts: int = 20,
    strategy: str = "random",
    prefill: float = 0.5,
    max_vms: int = 60,
    seed: int = 1,
) -> CampaignResult:
    """One full launch-probe-release campaign against a fresh zone."""
    with WorldCollector() as collector:
        streams = RandomStreams(seed)
        sim = Simulator()
        zone = CloudZone(
            sim,
            n_hosts=n_hosts,
            strategy=strategy,
            prefill=prefill,
            rng=streams.get("zone"),
        )
        app, factory = _build_victim(sim, zone, streams)

        def observe() -> Generator:
            """Median of five sequential HTTP probes to the victim."""
            samples = []
            for i in range(5):
                request = factory(10_000_000 + i)
                yield from fetch(sim, app, request)
                if request.response_time is not None:
                    samples.append(request.response_time)
            return float(np.median(samples)) if samples else 0.0

        probe = CausalCoResidencyProbe(sim, zone, observe)
        campaign = CoLocationCampaign(
            sim, zone, probe, max_vms=max_vms
        )
        process = sim.process(campaign.run())
        collector.run(sim, until=process)
    assert campaign.result is not None
    return campaign.result


def campaign_cell(spec) -> CampaignResult:
    """Sweep-cell entry point: one (n_hosts, strategy, max_vms, seed)."""
    n_hosts, strategy, max_vms, seed = spec
    return run_campaign(
        n_hosts=n_hosts, strategy=strategy, max_vms=max_vms, seed=seed
    )


@dataclass(frozen=True)
class PlacementStudyRow:
    """Aggregate over trials for one (zone size, strategy) cell."""

    n_hosts: int
    strategy: str
    trials: int
    success_rate: float
    mean_vms: float
    mean_cost_usd: float
    false_positives: int


@dataclass
class PlacementStudy:
    rows: List[PlacementStudyRow]

    def render(self) -> str:
        table_rows = [
            [
                r.n_hosts,
                r.strategy,
                f"{r.success_rate:.0%}",
                f"{r.mean_vms:.1f}",
                f"${r.mean_cost_usd:.2f}",
                r.false_positives,
            ]
            for r in self.rows
        ]
        return format_table(
            ["zone hosts", "strategy", "success", "mean VMs",
             "mean cost", "false pos"],
            table_rows,
            title=(
                "Co-residency campaigns (launch-probe-release, "
                "budget 60 VMs; paper cites 0.6-0.89 success, "
                "$0.14-$5.30)"
            ),
        )

    def row(self, n_hosts: int, strategy: str) -> PlacementStudyRow:
        for row in self.rows:
            if row.n_hosts == n_hosts and row.strategy == strategy:
                return row
        raise KeyError((n_hosts, strategy))


def run_placement_study(
    zone_sizes: Tuple[int, ...] = (10, 20, 40),
    strategies: Tuple[str, ...] = ("random", "packed"),
    trials: int = 5,
    max_vms: int = 60,
    executor: Optional[SweepExecutor] = None,
) -> PlacementStudy:
    """Sweep zone size and strategy over several campaign trials."""
    grid = [
        (n_hosts, strategy)
        for n_hosts in zone_sizes
        for strategy in strategies
    ]
    campaigns = ensure_executor(executor).map(
        [
            SweepCell.make(
                "placement-campaign",
                (n_hosts, strategy, max_vms, 100 * n_hosts + trial),
            )
            for n_hosts, strategy in grid
            for trial in range(trials)
        ]
    )
    rows = []
    for index, (n_hosts, strategy) in enumerate(grid):
        results = campaigns[index * trials:(index + 1) * trials]
        successes = [r for r in results if r.success]
        rows.append(
            PlacementStudyRow(
                n_hosts=n_hosts,
                strategy=strategy,
                trials=trials,
                success_rate=len(successes) / trials,
                mean_vms=float(
                    np.mean([r.vms_launched for r in results])
                ),
                mean_cost_usd=float(
                    np.mean([r.cost_usd for r in results])
                ),
                false_positives=sum(
                    r.false_positives for r in results
                ),
            )
        )
    return PlacementStudy(rows=rows)
