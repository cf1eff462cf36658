"""Net-vs-mem amplification comparison and the combined stealth attack.

The memory attacks degrade the *CPU* seen by a tier; the NIC attack
degrades the *network* between tiers.  Both are transient, both stack
across layers through the same RPC/RTO machinery — so the natural
questions are (a) how do their tail-amplification profiles compare at
the same ON-OFF rhythm, and (b) what does a defender's per-resource
sampler see for each?

Four campaigns against the same network-routed deployment and
workload:

* **baseline** — network queue chain on, no attacker: the loss-free
  reference tail.
* **mem** — the classic memory lock attack at full intensity (network
  on but unattacked, so the comparison is apples-to-apples).
* **nic** — the NIC ring-saturation attack at full intensity.
* **dual** — memory lock *and* NIC saturation in lock-step at half
  intensity each: the cross-resource stealth case.

Each row reports the damage axis (client P50/P99/P99.9, drops) next to
the two per-resource sampler views a defender would watch: the MySQL
CPU-utilization trace and the MySQL host's NIC traffic-share trace,
each reduced to the fraction of the measured window spent at/above
the same saturation threshold.  The
expected shape: ``mem`` trips the CPU sampler, ``nic`` trips the NIC
sampler (and, through queue propagation, leaves a secondary CPU
signature), and ``dual`` keeps *both* resources under the alarm line
while the stacked queueing delays still at least double the tail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from ..analysis.report import format_table
from .configs import NET_BASELINE, AttackSpec, RubbosScenario
from .parallel import SweepCell, SweepExecutor, ensure_executor
from .runner import run_rubbos

__all__ = ["NetCompareRow", "NetCompareResult", "run_net_comparison"]

CAMPAIGNS = ("baseline", "mem", "nic", "dual")

#: A resource sample at/above this counts as saturated (the paper's
#: millibottleneck threshold, applied to CPU utilization and to the
#: host NIC's traffic share alike).
SATURATION = 0.95
#: A campaign whose saturated fraction exceeds this is visible to that
#: resource's sampler.  Set above the transient propagation spikes a
#: victim-only workload shows under bursty load (a few percent) and
#: well below the ~25% duty cycle a full-power ON-OFF attack leaves on
#: the resource it contends.
ALARM_FRACTION = 0.08


@dataclass(frozen=True)
class NetCompareRow:
    """One campaign: client damage plus both sampler views."""

    campaign: str
    p50: float
    p99: float
    p999: float
    completed: int
    front_drops: int
    net_drops: int
    #: Fraction of MySQL CPU samples at/above :data:`SATURATION`.
    cpu_saturated_fraction: float
    #: Fraction of the measured window the MySQL host's NIC carried a
    #: co-located traffic share at/above :data:`SATURATION`.
    nic_saturated_fraction: float
    #: Mean *delivered* load on the MySQL host's NIC rings (0..1) —
    #: the averaged-out view a coarse throughput counter reports.
    nic_mean_load: float

    @property
    def cpu_alarm(self) -> bool:
        return self.cpu_saturated_fraction > ALARM_FRACTION

    @property
    def nic_alarm(self) -> bool:
        return self.nic_saturated_fraction > ALARM_FRACTION

    @property
    def sampler_visible(self) -> bool:
        """Would *any* per-resource sampler flag this campaign?"""
        return self.cpu_alarm or self.nic_alarm


@dataclass
class NetCompareResult:
    scenario: RubbosScenario
    rows: List[NetCompareRow]

    def row(self, campaign: str) -> NetCompareRow:
        for row in self.rows:
            if row.campaign == campaign:
                return row
        raise KeyError(campaign)

    def amplification(self, campaign: str) -> float:
        """Campaign P99 over the unattacked baseline P99."""
        base = self.row("baseline").p99
        if base <= 0:
            return 0.0
        return self.row(campaign).p99 / base

    def render(self) -> str:
        base = self.row("baseline")
        table_rows = []
        for r in self.rows:
            amp = self.amplification(r.campaign)
            verdict = "-"
            if r.campaign != "baseline" and amp >= 2.0:
                verdict = (
                    "DAMAGING+UNSAMPLED"
                    if not r.sampler_visible
                    else "damaging"
                )
            table_rows.append(
                [
                    r.campaign,
                    f"{r.p50 * 1e3:.1f} ms",
                    f"{r.p99 * 1e3:.0f} ms",
                    f"{r.p999 * 1e3:.0f} ms",
                    f"{amp:.1f}x" if r.campaign != "baseline" else "1.0x",
                    str(r.front_drops + r.net_drops),
                    f"{r.cpu_saturated_fraction:.1%}"
                    + (" ALARM" if r.cpu_alarm else ""),
                    f"{r.nic_saturated_fraction:.1%}"
                    + (" ALARM" if r.nic_alarm else ""),
                    verdict,
                ]
            )
        return format_table(
            ["campaign", "p50", "p99", "p99.9", "p99 amp", "drops",
             "cpu sat", "nic sat", "verdict"],
            table_rows,
            title=(
                "memory vs NIC vs combined cross-resource attack "
                f"(baseline p99 {base.p99 * 1e3:.0f} ms)"
            ),
        )


def _campaign_scenario(
    base: RubbosScenario, campaign: str
) -> RubbosScenario:
    """The per-campaign scenario variant, sharing everything else."""
    name = f"netcompare/{campaign}"
    if campaign == "baseline":
        return replace(base, name=name, attack=None)
    if campaign == "mem":
        attack = AttackSpec(program="lock", jitter=0.0)
    elif campaign == "nic":
        attack = AttackSpec(program="nic", jitter=0.0)
    elif campaign == "dual":
        attack = AttackSpec(program="lock+nic", intensity=0.5, jitter=0.0)
    else:
        raise ValueError(f"unknown netcompare campaign {campaign!r}")
    return replace(base, name=name, attack=attack)


def _run_campaign(
    scenario: RubbosScenario, campaign: str
) -> NetCompareRow:
    variant = _campaign_scenario(scenario, campaign)
    run = run_rubbos(variant)
    # The completed log holds no failed rows.
    rts = run.client_requests().column("response_time")
    if rts.size:
        p50, p99, p999 = (
            float(np.percentile(rts, q)) for q in (50.0, 99.0, 99.9)
        )
    else:
        p50 = p99 = p999 = 0.0
    util = run.util_monitors["mysql"].series.between(
        variant.warmup, variant.duration
    )
    samples = np.asarray([v for _, v in util])
    saturated = (
        float(np.mean(samples >= SATURATION)) if samples.size else 0.0
    )
    net = run.network
    target = run.app.back.name
    window = variant.duration - variant.warmup
    nic_saturated = 0.0
    nic_load = 0.0
    if net is not None:
        nic = net.nics[target]
        if window > 0:
            nic_saturated = (
                nic.share_time_above(
                    SATURATION, variant.warmup, variant.duration
                )
                / window
            )
        nic_load = net.mean_load(target, variant.duration)
    return NetCompareRow(
        campaign=campaign,
        p50=p50,
        p99=p99,
        p999=p999,
        completed=int(rts.size),
        front_drops=run.app.front.drops,
        net_drops=net.drops if net is not None else 0,
        cpu_saturated_fraction=saturated,
        nic_saturated_fraction=nic_saturated,
        nic_mean_load=nic_load,
    )


def netcompare_cell(spec) -> NetCompareRow:
    """Sweep-cell entry point: one (scenario, campaign) run."""
    scenario, campaign = spec
    return _run_campaign(scenario, campaign)


def run_net_comparison(
    scenario: Optional[RubbosScenario] = None,
    executor: Optional[SweepExecutor] = None,
) -> NetCompareResult:
    """Run all four campaigns against identical network-routed stacks."""
    base = scenario or NET_BASELINE
    rows = ensure_executor(executor).map(
        [
            SweepCell.make("netcompare-campaign", (base, campaign))
            for campaign in CAMPAIGNS
        ]
    )
    return NetCompareResult(scenario=base, rows=rows)
