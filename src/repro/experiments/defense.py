"""Defense evaluation: millibottleneck-triggered migration vs MemCA.

The paper closes by noting that defending against MemCA "requires
significant future research"; this experiment evaluates the natural
candidate (see :mod:`repro.cloud.defense`): watch the latency-critical
VM at fine granularity for repeated transient saturations and
live-migrate it off the contested host.

Two scenarios:

* defense only — the tail collapses back to baseline after migration;
* cat-and-mouse — the adversary re-co-locates with the victim after a
  delay (placement attacks cost time and money, per the paper's cited
  co-residency studies), and the tail degrades again until the next
  migration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Generator, List, Optional, Tuple

import numpy as np

from ..analysis.report import format_table
from ..cloud.defense import MigrationEvent, MillibottleneckDefense
from ..hardware.memory import MemorySubsystem
from ..obs import TelemetryConfig
from .configs import PRIVATE_CLOUD, RubbosScenario
from .parallel import SweepCell, SweepExecutor, ensure_executor
from .runner import RubbosRun, run_rubbos
from .summary import RunSummary, summarize_rubbos

__all__ = [
    "DefenseResult",
    "LATENCY_DEFENSE_TELEMETRY",
    "run_defense",
    "run_rubbos_with_defense",
]


@dataclass
class DefenseResult:
    """Windowed client tail before/after defensive migrations."""

    scenario: RubbosScenario
    window: float
    #: (window start, p95 over the window, requests) triples.
    timeline: List[Tuple[float, float, int]]
    migrations: List[MigrationEvent]
    recolocations: List[float]
    summary: Optional[RunSummary]

    def p95_between(self, t0: float, t1: float) -> float:
        samples = [
            p95
            for start, p95, _n in self.timeline
            if t0 <= start < t1
        ]
        if not samples:
            raise ValueError(f"no windows in [{t0}, {t1})")
        return float(np.median(samples))

    def render(self) -> str:
        rows = []
        events = [(m.time, f"-> migrated to {m.new_host}")
                  for m in self.migrations]
        events += [(t, "-> adversary re-co-located")
                   for t in self.recolocations]
        for start, p95, count in self.timeline:
            marks = "; ".join(
                note for t, note in events if start <= t < start + self.window
            )
            rows.append(
                [f"{start:.0f}-{start + self.window:.0f}s",
                 f"{p95 * 1e3:.0f} ms", count, marks]
            )
        return format_table(
            ["window", "client p95", "requests", "events"],
            rows,
            title="Defense evaluation: windowed client p95 under MemCA",
        )


def defense_cell(spec) -> DefenseResult:
    """Sweep-cell entry point: one full defended run.

    The whole (picklable) :class:`DefenseResult` is assembled in the
    worker; the live run stays behind, summarized.
    """
    scenario, window, recolocate_after, episodes_to_trigger = spec[:4]
    trigger = spec[4] if len(spec) > 4 else "utilization"
    rubbos_run, defense, recolocations = run_rubbos_with_defense(
        scenario, recolocate_after, episodes_to_trigger, trigger=trigger
    )
    timeline = []
    completed = rubbos_run.app.completed
    all_rts = completed.column("response_time")
    start = scenario.warmup
    while start + window <= scenario.duration:
        rts = all_rts[completed.rows_between(start, start + window)]
        if len(rts):
            timeline.append(
                (start, float(np.percentile(rts, 95)), len(rts))
            )
        start += window
    return DefenseResult(
        scenario=scenario,
        window=window,
        timeline=timeline,
        migrations=defense.migrations,
        recolocations=recolocations,
        summary=summarize_rubbos(rubbos_run),
    )


def run_defense(
    scenario: Optional[RubbosScenario] = None,
    window: float = 10.0,
    recolocate_after: Optional[float] = None,
    episodes_to_trigger: int = 8,
    executor: Optional[SweepExecutor] = None,
    trigger: str = "utilization",
) -> DefenseResult:
    """Run MemCA against a defended deployment.

    ``recolocate_after`` — seconds after each migration at which the
    adversary manages to co-locate with the victim again (None: never).
    ``trigger`` — ``"utilization"`` for the post-hoc episode harvester,
    ``"latency"`` for the live telemetry-driven path (see
    :meth:`repro.cloud.defense.MillibottleneckDefense.attach_bus`).
    """
    if scenario is None:
        scenario = replace(
            PRIVATE_CLOUD, name="private-cloud/defended", duration=120.0
        )
    return ensure_executor(executor).run(
        SweepCell.make(
            "defense",
            (scenario, window, recolocate_after, episodes_to_trigger,
             trigger),
        )
    )


#: Telemetry configuration of the latency-triggered defense path: the
#: SLO sits well above the quiet-tail P99 (~0.3 s at baseline) and
#: well below the drop-driven attack tail (>= 1 s per TCP
#: retransmission), so violating windows track attack damage, not
#: noise.  One violating window needs no debounce partner — bursts are
#: 0.5 s in 2 s intervals, so consecutive 1 s windows rarely both
#: violate and requiring a streak would starve the episode counter.
LATENCY_DEFENSE_TELEMETRY = TelemetryConfig(
    slo=0.6, consecutive_windows=1
)


def run_rubbos_with_defense(
    scenario: RubbosScenario,
    recolocate_after: Optional[float],
    episodes_to_trigger: int,
    trigger: str = "utilization",
    telemetry: Optional[TelemetryConfig] = None,
):
    """Like :func:`run_rubbos`, plus the defense and the cat-and-mouse.

    Installs the defense on the bottleneck VM and (optionally) an
    adversary re-co-location process through ``run_rubbos``'s
    ``attach`` hook, so they are in place before the first event and
    run inside the one collector run; the returned record is
    ``run_rubbos``'s own, with the caller's scenario and every world
    component (network, NIC attacker, fluid bulk) it built.
    ``trigger="latency"`` swaps the post-hoc utilization harvester for
    the live path: the run carries the streaming telemetry stack and
    the defense consumes its ``slo.violation`` topic instead of
    sampling the victim's CPU.  Returns ``(run, defense,
    recolocations)``.
    """
    if trigger not in ("utilization", "latency"):
        raise ValueError(
            f"trigger must be 'utilization' or 'latency': {trigger!r}"
        )
    defenses: List[MillibottleneckDefense] = []
    recolocations: List[float] = []

    def add_defense(run: RubbosRun) -> None:
        sim = run.sim
        victim = run.deployment.vm(run.deployment.bottleneck.name)
        defense = MillibottleneckDefense(
            sim, victim, episodes_to_trigger=episodes_to_trigger
        )
        defenses.append(defense)
        if trigger == "latency":
            defense.attach_bus(run.obs.bus)
        else:
            defense.start()
        if recolocate_after is None or run.attack is None:
            return
        attacker = run.attack.attacker

        def chase() -> Generator:
            migrations_followed = 0
            while True:
                yield 1.0
                if len(defense.migrations) <= migrations_followed:
                    continue
                migration = defense.migrations[migrations_followed]
                migrations_followed += 1
                # Placement attacks take time: wait, then co-locate on
                # the victim's new host and retarget the bursts.
                yield recolocate_after
                if victim.host is None or victim.memory is None:
                    continue
                new_memory = victim.memory
                for name in attacker.vm_names:
                    victim.host.place(name, package=0)
                attacker.retarget(new_memory)
                recolocations.append(sim.now)

        sim.process(chase())

    tracing = False
    if trigger == "latency":
        tracing = LATENCY_DEFENSE_TELEMETRY if telemetry is None else telemetry
    run = run_rubbos(scenario, attach=add_defense, tracing=tracing)
    (defense,) = defenses
    return run, defense, recolocations
