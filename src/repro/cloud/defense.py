"""A millibottleneck-aware defense (the paper's future-work direction).

The paper's conclusion: coarse cloud monitoring cannot see MemCA, fine
monitoring is too expensive fleet-wide, and even the right host-level
counter depends on the attack program.  One defense that sidesteps the
attribution problem entirely: detect the *symptom* — repeated transient
CPU saturations (millibottlenecks) of a latency-critical VM — with
targeted fine-grained monitoring of just that VM, and respond by
live-migrating it away from whatever is sharing its host.  Migration
does not require knowing the cause; it breaks co-location, which every
internal attack needs.

:class:`MillibottleneckDefense` implements that loop.  It is
deliberately conservative: episodes must look like millibottlenecks
(saturated spans between ``min_episode`` and ``max_episode`` long — a
steady overload instead wants auto-scaling, not migration), and several
must accumulate within a sliding window before the defender pays the
migration cost.

Two trigger paths feed the same episode counter:

* **post-hoc utilization** (``start()``) — the original loop: a
  periodic process harvests closed saturation spans from a fine
  utilization monitor, paying the span-closure plus check-interval
  detection lag;
* **live tail latency** (``attach_bus()``) — the streaming path: each
  ``slo.violation`` published by the telemetry pipeline's
  :class:`~repro.obs.streaming.TailSloDetector` counts as one episode
  at the moment the violating window closes, so migration triggers on
  *traced client-side damage* with no utilization monitor on the
  victim at all.  This is the end of the paper's cat-and-mouse loop:
  the symptom being defended (tail latency) is the trigger itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from ..hardware.memory import MemorySubsystem
from ..hardware.topology import CpuSpec, Host
from ..hardware.vm import VirtualMachine
from ..monitoring.sampler import UtilizationMonitor
from ..sim.core import Simulator

__all__ = ["MigrationEvent", "MillibottleneckDefense"]


@dataclass(frozen=True)
class MigrationEvent:
    """One defensive migration: when, why, and where to."""

    time: float
    episodes_observed: int
    new_host: str


class MillibottleneckDefense:
    """Detect repeated transient saturations; migrate the victim away."""

    def __init__(
        self,
        sim: Simulator,
        victim: VirtualMachine,
        monitor_interval: float = 0.05,
        saturation: float = 0.99,
        min_episode: float = 0.05,
        max_episode: float = 1.5,
        episodes_to_trigger: int = 8,
        window: float = 30.0,
        check_interval: float = 1.0,
        migration_downtime: float = 0.3,
        cooldown: float = 20.0,
        host_spec: Optional[CpuSpec] = None,
    ):
        if episodes_to_trigger < 1:
            raise ValueError("episodes_to_trigger must be >= 1")
        if not 0 < min_episode < max_episode:
            raise ValueError("need 0 < min_episode < max_episode")
        self.sim = sim
        self.victim = victim
        self.saturation = saturation
        self.min_episode = min_episode
        self.max_episode = max_episode
        self.episodes_to_trigger = episodes_to_trigger
        self.window = window
        self.check_interval = check_interval
        self.migration_downtime = migration_downtime
        self.cooldown = cooldown
        self.host_spec = host_spec or (
            victim.host.spec if victim.host else None
        )
        if self.host_spec is None:
            raise ValueError("victim must be placed (or pass host_spec)")
        self.monitor = UtilizationMonitor(
            sim, victim.cpu, interval=monitor_interval,
            name=f"{victim.name}-defense",
        )
        #: Onset times of millibottleneck episodes seen so far.
        self.episodes: List[float] = []
        self.migrations: List[MigrationEvent] = []
        self._spans_seen = 0
        self._migration_count = 0
        self._last_migration = -float("inf")
        self._proc = None

    def start(self) -> None:
        if self._proc is None:
            self.monitor.start()
            self._proc = self.sim.process(self._run())

    def attach_bus(self, bus, topic: str = "slo.violation") -> "MillibottleneckDefense":
        """Subscribe the live trigger path: violations are episodes.

        Counts every published tail-SLO violation as one episode onset
        (at the payload's window-close time) and migrates the moment
        ``episodes_to_trigger`` of them accumulate inside ``window``,
        subject to the usual cooldown.  Does not need — and does not
        start — the utilization monitor or the periodic check process;
        a defense may run either path or, for A/B instrumentation,
        both (the episode list is shared).
        """
        bus.subscribe(topic, self._on_violation)
        return self

    def _on_violation(self, payload) -> None:
        onset = float(payload["time"])
        if onset < self._last_migration:
            return  # stale: violation window predates the migration
        self.episodes.append(onset)
        if self.sim.now - self._last_migration < self.cooldown:
            return
        count = self._recent_episode_count()
        if count >= self.episodes_to_trigger:
            self._migrate(count)

    # -- detection ---------------------------------------------------------

    def _harvest_episodes(self) -> None:
        """Classify newly completed saturation spans as episodes."""
        series = self.monitor.series
        spans = series.intervals_above(self.saturation)
        # The final span may still be growing; only classify closed ones.
        closed = spans[:-1] if spans else []
        for start, end in closed[self._spans_seen:]:
            length = end - start
            # Spans from before the last migration belong to the old
            # host; a migration wipes the slate.
            if start < self._last_migration:
                continue
            if self.min_episode <= length <= self.max_episode:
                self.episodes.append(start)
        self._spans_seen = max(self._spans_seen, len(closed))

    def _recent_episode_count(self) -> int:
        cutoff = self.sim.now - self.window
        return sum(1 for onset in self.episodes if onset >= cutoff)

    # -- response ----------------------------------------------------------

    def _run(self) -> Generator:
        while True:
            yield self.check_interval
            self._harvest_episodes()
            if self.sim.now - self._last_migration < self.cooldown:
                continue
            count = self._recent_episode_count()
            if count >= self.episodes_to_trigger:
                self._migrate(count)

    def _migrate(self, episodes: int) -> None:
        self._migration_count += 1
        name = f"defense-host-{self._migration_count}"
        new_host = Host(name, self.host_spec)
        new_memory = MemorySubsystem(new_host)
        self.victim.migrate(
            new_host,
            new_memory,
            package=0,
            downtime=self.migration_downtime,
        )
        self._last_migration = self.sim.now
        self.episodes.clear()
        self.migrations.append(
            MigrationEvent(
                time=self.sim.now,
                episodes_observed=episodes,
                new_host=name,
            )
        )

    @property
    def triggered(self) -> bool:
        return bool(self.migrations)
