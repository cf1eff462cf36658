"""Figure 6: cross-tier queue overflow vs. the classic tandem queue.

Runs the same MemCA burst (D=0.1, L=100 ms, I=2 s) against (a) a
tandem-queue model, where all excess requests pile up in the last
(bottleneck) station, and (b) the paper's attack model with synchronous
RPC tiers and finite queues, where the overflow propagates upstream
through every tier: fill-up, hold-on, fade-off.  Also overlays the
closed-form queue trajectory of Eqs. 4-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.plot import ascii_timeseries
from ..analysis.report import format_table
from ..model.attack_model import queue_trajectory
from ..monitoring.metrics import TimeSeries
from .configs import MODEL_3TIER, ModelScenario, model_system
from .parallel import SweepCell, SweepExecutor, ensure_executor
from .summary import RunSummary

__all__ = ["Fig6Result", "run_fig6"]


def _burst_window(
    summary: RunSummary, burst_index: int, lead: float, tail: float
) -> Tuple[float, float, float]:
    bursts = summary.bursts
    if len(bursts) <= burst_index:
        raise ValueError(
            f"run produced only {len(bursts)} bursts, need "
            f"{burst_index + 1}"
        )
    burst = bursts[burst_index]
    return burst.start, burst.start - lead, burst.start + tail


@dataclass
class Fig6Result:
    """Queue-length traces for both models around one burst."""

    scenario: ModelScenario
    #: tier -> sampled occupancy inside the window (tandem model).
    tandem: Dict[str, TimeSeries]
    #: tier -> sampled occupancy inside the window (attack model).
    attack: Dict[str, TimeSeries]
    #: tier -> closed-form predicted trajectory on the attack window.
    predicted: Dict[str, List[float]]
    predicted_times: List[float]
    burst_start: float
    window: Tuple[float, float]

    def peak_occupancy(self, case: str, tier: str) -> float:
        series = (self.tandem if case == "tandem" else self.attack)[tier]
        return series.max()

    def render(self) -> str:
        rows = []
        for tier, q in zip(
            self.scenario.tier_names, self.scenario.queue_sizes
        ):
            rows.append(
                [
                    tier,
                    q,
                    self.peak_occupancy("tandem", tier),
                    self.peak_occupancy("attack", tier),
                    max(self.predicted[tier]),
                ]
            )
        table = format_table(
            ["tier", "Q_i", "tandem peak", "attack peak", "model peak"],
            rows,
            title=(
                "Fig 6: peak queue length during one burst "
                f"(D={self.scenario.burst.D}, L={self.scenario.burst.L}s)"
            ),
            float_format="{:.1f}",
        )
        chart = ascii_timeseries(
            self.attack,
            title="Fig 6b: attack-model queue lengths around the burst",
            y_label="queue length",
        )
        return f"{table}\n{chart}"


def run_fig6(
    scenario: ModelScenario = MODEL_3TIER,
    burst_index: int = 3,
    lead: float = 0.2,
    tail: float = 1.0,
    executor: Optional[SweepExecutor] = None,
) -> Fig6Result:
    """Run both models and extract one burst's queue trajectories."""
    tandem, attack = ensure_executor(executor).map(
        [
            SweepCell.make("model", (scenario, "tandem")),
            SweepCell.make("model", (scenario, "attack-finite")),
        ]
    )

    burst_start, w0, w1 = _burst_window(attack, burst_index, lead, tail)
    attack_series = {
        tier: attack.queue_series[tier].between(w0, w1)
        for tier in scenario.tier_names
    }
    # The tandem run's bursts are at the same nominal schedule.
    t_start, t0, t1 = _burst_window(tandem, burst_index, lead, tail)
    tandem_series = {
        tier: tandem.queue_series[tier].between(t0, t1)
        for tier in scenario.tier_names
    }

    system = model_system(scenario)
    predicted_times = list(np.arange(w0, w1, 0.005))
    predicted = {
        tier: queue_trajectory(
            system,
            scenario.burst,
            index,
            predicted_times,
            burst_start=burst_start,
        )
        for index, tier in enumerate(scenario.tier_names)
    }
    return Fig6Result(
        scenario=scenario,
        tandem=tandem_series,
        attack=attack_series,
        predicted=predicted,
        predicted_times=predicted_times,
        burst_start=burst_start,
        window=(w0, w1),
    )
