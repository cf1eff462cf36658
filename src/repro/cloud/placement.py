"""VM placement and co-residency campaigns (threat-model §II-B).

The paper assumes the adversary can co-locate with the victim, citing
placement-attack studies (launch cost $0.14-$5.30, success rates
0.6-0.89).  This module models that step so the threat is end-to-end:

* :class:`CloudZone` — a pool of hosts the provider places newly
  launched VMs on (random or packed strategy), pre-filled with
  unrelated tenants.
* :class:`CausalCoResidencyProbe` — the detection trick: fire a short
  memory-lock burst from a candidate VM while probing the victim's
  public HTTP endpoint.  If the probe's response time inflates only
  when the candidate bursts, the candidate shares the victim's host.
  (This is itself a miniature MemCA — the attack doubles as its own
  placement oracle.)
* :class:`CoLocationCampaign` — launch-probe-release until co-resident
  or out of budget, with cost accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

import numpy as np

from ..hardware.memory import MemoryActivity, MemorySubsystem
from ..hardware.topology import XEON_E5_2603_V3, CpuSpec, Host
from ..sim.core import Simulator

__all__ = [
    "ZoneFullError",
    "CloudZone",
    "CausalCoResidencyProbe",
    "CampaignResult",
    "CoLocationCampaign",
]


class ZoneFullError(RuntimeError):
    """Every host slot in the zone is occupied."""


class CloudZone:
    """A provider zone: hosts, slots, and a placement strategy."""

    def __init__(
        self,
        sim: Simulator,
        n_hosts: int = 20,
        slots_per_host: int = 6,
        spec: CpuSpec = XEON_E5_2603_V3,
        strategy: str = "random",
        prefill: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_hosts < 1 or slots_per_host < 1:
            raise ValueError("need at least one host and one slot")
        if strategy not in ("random", "packed"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if not 0.0 <= prefill < 1.0:
            raise ValueError(f"prefill outside [0,1): {prefill}")
        self.sim = sim
        self.slots_per_host = slots_per_host
        self.strategy = strategy
        self.rng = rng if rng is not None else np.random.default_rng()
        self.hosts = [Host(f"zone-host-{i}", spec) for i in range(n_hosts)]
        self.memories = [MemorySubsystem(host) for host in self.hosts]
        #: vm name -> host index.
        self.residents: Dict[str, int] = {}
        self.launches = 0
        # Unrelated tenants occupying slots (they do not touch memory
        # hard enough to matter, but they shape placement odds).
        tenant = 0
        for index in range(n_hosts):
            occupied = int(self.rng.binomial(slots_per_host, prefill))
            occupied = min(occupied, slots_per_host - 1)
            for _ in range(occupied):
                self._place(f"tenant-{tenant}", index)
                tenant += 1

    def _place(self, name: str, host_index: int) -> None:
        self.hosts[host_index].place(name, package=0)
        self.residents[name] = host_index

    def free_slots(self, host_index: int) -> int:
        used = sum(
            1 for idx in self.residents.values() if idx == host_index
        )
        return self.slots_per_host - used

    def launch(self, name: str) -> int:
        """Place a new VM per the zone strategy; returns the host index."""
        if name in self.residents:
            raise ValueError(f"VM name {name!r} already in use")
        candidates = [
            i for i in range(len(self.hosts)) if self.free_slots(i) > 0
        ]
        if not candidates:
            raise ZoneFullError("no free slots in the zone")
        if self.strategy == "packed":
            chosen = candidates[0]
        else:
            # Random placement weighted by free capacity (the common
            # spread-for-balance behaviour).
            weights = np.array(
                [self.free_slots(i) for i in candidates], dtype=float
            )
            weights /= weights.sum()
            chosen = int(self.rng.choice(candidates, p=weights))
        self._place(name, chosen)
        self.launches += 1
        return chosen

    def terminate(self, name: str) -> None:
        index = self.residents.pop(name, None)
        if index is not None:
            self.memories[index].clear_activity(name)
            self.hosts[index].remove(name)

    def host_of(self, name: str) -> int:
        return self.residents[name]

    def co_resident(self, a: str, b: str) -> bool:
        return self.residents.get(a) == self.residents.get(b)


class CausalCoResidencyProbe:
    """Is this candidate VM on the victim's host?  Burst and watch.

    ``observe()`` must return the victim-side latency signal an outside
    client can measure (e.g. median HTTP probe RT); the probe compares
    observations with the candidate's lock burst ON vs OFF.
    """

    def __init__(
        self,
        sim: Simulator,
        zone: CloudZone,
        observe: Callable[[], Generator],
        burst_length: float = 0.4,
        inflation_threshold: float = 3.0,
        lock_duty: float = 0.9,
    ):
        if inflation_threshold <= 1.0:
            raise ValueError(
                f"inflation_threshold must exceed 1: {inflation_threshold}"
            )
        self.sim = sim
        self.zone = zone
        self.observe = observe
        self.burst_length = burst_length
        self.inflation_threshold = inflation_threshold
        self.lock_duty = lock_duty
        self.probes_run = 0

    def test(self, candidate: str) -> Generator:
        """Generator returning True if the candidate looks co-resident."""
        self.probes_run += 1
        quiet = yield from self.observe()
        host_index = self.zone.host_of(candidate)
        memory = self.zone.memories[host_index]
        memory.set_activity(
            MemoryActivity(
                candidate, demand_mbps=50.0, lock_duty=self.lock_duty
            )
        )
        try:
            loud = yield from self.observe()
        finally:
            memory.clear_activity(candidate)
        if quiet <= 0:
            return False
        return loud / quiet >= self.inflation_threshold


@dataclass
class CampaignResult:
    """Outcome and cost accounting of one co-location campaign."""

    success: bool
    co_resident_vm: Optional[str]
    vms_launched: int
    probes_run: int
    duration: float
    vm_hours: float
    #: Cost at the hourly price given to the campaign.
    cost_usd: float
    false_positives: int = 0

    def summary(self) -> str:
        verdict = (
            f"co-located as {self.co_resident_vm!r}"
            if self.success
            else "FAILED"
        )
        return (
            f"{verdict} after {self.vms_launched} VMs / "
            f"{self.probes_run} probes in {self.duration:.0f}s "
            f"(~{self.vm_hours:.2f} VM-h, ${self.cost_usd:.2f})"
        )


class CoLocationCampaign:
    """Launch-probe-release until co-resident with the victim."""

    def __init__(
        self,
        sim: Simulator,
        zone: CloudZone,
        probe: CausalCoResidencyProbe,
        victim_name: str = "victim",
        batch_size: int = 4,
        max_vms: int = 60,
        settle_time: float = 1.0,
        hourly_price_usd: float = 0.10,
    ):
        if batch_size < 1 or max_vms < 1:
            raise ValueError("batch_size and max_vms must be >= 1")
        self.sim = sim
        self.zone = zone
        self.probe = probe
        self.victim_name = victim_name
        self.batch_size = batch_size
        self.max_vms = max_vms
        self.settle_time = settle_time
        self.hourly_price_usd = hourly_price_usd
        self.result: Optional[CampaignResult] = None

    def run(self) -> Generator:
        """The campaign process; returns a :class:`CampaignResult`."""
        started = self.sim.now
        launched_total = 0
        vm_seconds = 0.0
        false_positives = 0
        winner: Optional[str] = None
        while launched_total < self.max_vms and winner is None:
            batch = []
            remaining = self.max_vms - launched_total
            for i in range(min(self.batch_size, remaining)):
                name = f"candidate-{launched_total + i}"
                try:
                    self.zone.launch(name)
                except ZoneFullError:
                    break
                batch.append((name, self.sim.now))
            launched_total += len(batch)
            if not batch:
                break
            yield self.settle_time
            for name, launched_at in batch:
                verdict = yield from self.probe.test(name)
                truly = self.zone.co_resident(name, self.victim_name)
                if verdict and truly:
                    winner = name
                    break
                if verdict and not truly:
                    false_positives += 1
            for name, launched_at in batch:
                if name != winner:
                    vm_seconds += self.sim.now - launched_at
                    self.zone.terminate(name)
                else:
                    vm_seconds += self.sim.now - launched_at
        duration = self.sim.now - started
        vm_hours = vm_seconds / 3600.0
        self.result = CampaignResult(
            success=winner is not None,
            co_resident_vm=winner,
            vms_launched=launched_total,
            probes_run=self.probe.probes_run,
            duration=duration,
            vm_hours=vm_hours,
            cost_usd=vm_hours * self.hourly_price_usd
            + launched_total * 0.01,  # per-launch minimum billing
            false_positives=false_positives,
        )
        return self.result
