"""Figure 7: tail response-time amplification across the three models.

Same burst parameters (D=0.1, L=100 ms, I=2 s), three service
disciplines:

* (a) tandem queue with infinite queues — per-tier percentile curves
  nearly overlap (all queueing is at MySQL);
* (b) attack model (synchronous RPC) with an infinite front queue —
  Apache/client percentiles amplify via cross-tier queue overflow, but
  nothing is dropped;
* (c) attack model with finite queues — requests are dropped at the
  front tier during hold-on and clients eat >= 1 s TCP retransmissions,
  producing the tallest peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis.report import format_percentile_curves
from ..analysis.stats import PercentileCurve
from .configs import MODEL_3TIER, ModelScenario
from .parallel import SweepCell, SweepExecutor, ensure_executor

__all__ = ["Fig7Result", "run_fig7", "CASES"]

CASES = {
    "tandem": "tandem",
    "attack-infinite-front": "attack-infinite-front",
    "attack-finite": "attack-finite",
}

PERCENTILES = (50, 75, 90, 95, 97, 98, 99, 99.5)


@dataclass
class Fig7Result:
    """Percentile curves per case, keyed by case then series name."""

    scenario: ModelScenario
    cases: Dict[str, Dict[str, PercentileCurve]]
    drops: Dict[str, int]

    def render(self) -> str:
        order = ("client",) + tuple(self.scenario.tier_names)
        blocks = []
        panel = {"tandem": "a", "attack-infinite-front": "b",
                 "attack-finite": "c"}
        for case, curves in self.cases.items():
            title = (
                f"Fig 7{panel[case]} ({case}): percentile response time "
                f"[drops={self.drops[case]}]"
            )
            blocks.append(
                format_percentile_curves(curves, order=order, title=title)
            )
        return "\n\n".join(blocks)


def run_fig7(
    scenario: ModelScenario = MODEL_3TIER,
    executor: Optional[SweepExecutor] = None,
) -> Fig7Result:
    """Run all three cases and compute their percentile curves."""
    summaries = ensure_executor(executor).map(
        [
            SweepCell.make("model", (scenario, mode))
            for mode in CASES.values()
        ]
    )
    cases: Dict[str, Dict[str, PercentileCurve]] = {}
    drops: Dict[str, int] = {}
    for case, summary in zip(CASES, summaries):
        cases[case] = summary.percentile_curves(PERCENTILES)
        drops[case] = summary.front_drops
    return Fig7Result(scenario=scenario, cases=cases, drops=drops)
