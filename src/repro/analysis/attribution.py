"""Root-cause attribution: joining tail requests to contention episodes.

The paper's Fig 9 is a visual argument — attack bursts (a), transient
CPU saturation (b), queue propagation (c), and >1 s client responses
(d) line up in time.  This module makes that argument programmatic: for
every slow request it names the *dominant latency component* (from the
request's span tree when traced, else reconstructed from tier spans and
the TCP drop count) and the attack ON burst and/or millibottleneck
episode its lifetime overlapped.

A request counts as *attributed* when it overlaps at least one burst or
episode; the report's coverage is the attributed fraction of all slow
requests — the headline number the ``python -m repro trace`` command
prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.burst import BurstRecord
from ..ntier.request import Request, RequestLog
from ..ntier.tcp import DEFAULT_TCP, RetransmissionPolicy
from .report import format_table

__all__ = [
    "RequestAttribution",
    "AttributionReport",
    "component_breakdown",
    "attribute_requests",
    "attribute_run",
]


def component_breakdown(
    request: Request, tcp: RetransmissionPolicy = DEFAULT_TCP
) -> Dict[str, float]:
    """Per-component latency totals for one completed request.

    Traced requests are read exactly from their leaf spans
    (``queue_wait:<tier>``, ``service:<tier>``, ``net:<hop>``,
    ``rto_wait``).  Untraced requests fall back to a reconstruction:
    retransmission wait from the drop count via
    :meth:`RetransmissionPolicy.rto_for_drop`, and per-tier *exclusive*
    time (tier span minus its downstream span) lumped as
    ``tier:<name>`` since queueing and service cannot be separated
    after the fact.
    """
    if request.trace is not None and request.trace.finished:
        return request.trace.leaf_durations()
    out: Dict[str, float] = {}
    # A failed request's final drop has no backoff after it.
    backoffs = min(request.drops, tcp.max_retries)
    rto_total = sum(tcp.rto_for_drop(i) for i in range(backoffs))
    if rto_total > 0:
        out["rto_wait"] = rto_total
    inclusive = {
        tier: sum(leave - enter for enter, leave in spans)
        for tier, spans in request.tier_spans.items()
    }
    # Tier spans nest (synchronous RPC), so exclusive time at a tier is
    # its inclusive time minus the largest inclusive time strictly
    # contained in it.  Sorting by inclusive time gives the chain order
    # without needing the deployment's tier list.
    ordered = sorted(inclusive.items(), key=lambda kv: kv[1], reverse=True)
    for (tier, total), nxt in zip(
        ordered, list(ordered[1:]) + [(None, 0.0)]
    ):
        exclusive = max(0.0, total - nxt[1])
        if exclusive > 0:
            out[f"tier:{tier}"] = exclusive
    return out


def _overlaps(
    t0: float, t1: float, w0: float, w1: float, slack: float
) -> bool:
    return w0 < t1 and (w1 + slack) > t0


@dataclass
class RequestAttribution:
    """One slow request joined against the contention timeline."""

    rid: int
    t_start: float
    t_done: float
    response_time: float
    attempts: int
    components: Dict[str, float]
    dominant: str
    dominant_time: float
    bursts: List[BurstRecord] = field(default_factory=list)
    episodes: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def attributed(self) -> bool:
        """Overlapped at least one ON burst or millibottleneck."""
        return bool(self.bursts) or bool(self.episodes)

    @property
    def dominant_share(self) -> float:
        if self.response_time <= 0:
            return 0.0
        return self.dominant_time / self.response_time


@dataclass
class AttributionReport:
    """All slow requests of a run, attributed."""

    threshold: float
    total_requests: int
    attributions: List[RequestAttribution]

    @property
    def slow_requests(self) -> int:
        return len(self.attributions)

    @property
    def attributed_count(self) -> int:
        return sum(1 for a in self.attributions if a.attributed)

    @property
    def coverage(self) -> float:
        """Fraction of slow requests overlapping a burst or episode."""
        if not self.attributions:
            return 1.0
        return self.attributed_count / len(self.attributions)

    def dominant_counts(self) -> Dict[str, int]:
        """How often each component dominates a slow request."""
        out: Dict[str, int] = {}
        for a in self.attributions:
            out[a.dominant] = out.get(a.dominant, 0) + 1
        return dict(
            sorted(out.items(), key=lambda kv: kv[1], reverse=True)
        )

    def render(self, max_rows: int = 20) -> str:
        lines = [
            f"Attribution of {self.slow_requests} requests slower than "
            f"{self.threshold:.2f}s (of {self.total_requests} total): "
            f"{self.attributed_count} overlap an attack burst or "
            f"millibottleneck ({self.coverage:.1%} coverage)"
        ]
        if self.attributions:
            counts = self.dominant_counts()
            lines.append(
                "dominant components: "
                + ", ".join(f"{k} x{v}" for k, v in counts.items())
            )
            rows = []
            for a in sorted(
                self.attributions,
                key=lambda a: a.response_time,
                reverse=True,
            )[:max_rows]:
                cause = "-"
                if a.bursts:
                    cause = f"burst@{a.bursts[0].start:.2f}s"
                elif a.episodes:
                    cause = f"episode@{a.episodes[0][0]:.2f}s"
                rows.append(
                    [
                        str(a.rid),
                        f"{a.t_done:.2f}",
                        f"{a.response_time:.3f}",
                        str(a.attempts),
                        f"{a.dominant} ({a.dominant_share:.0%})",
                        cause,
                    ]
                )
            lines.append(
                format_table(
                    [
                        "rid",
                        "done",
                        "rt(s)",
                        "tries",
                        "dominant component",
                        "overlaps",
                    ],
                    rows,
                    title=f"worst {len(rows)} requests",
                )
            )
        return "\n".join(lines)


def attribute_requests(
    requests: Iterable[Request],
    bursts: Sequence[BurstRecord] = (),
    episodes: Sequence[Tuple[float, float]] = (),
    threshold: float = 1.0,
    fade_slack: float = 0.5,
    tcp: RetransmissionPolicy = DEFAULT_TCP,
) -> AttributionReport:
    """Join slow requests against bursts and millibottleneck episodes.

    ``fade_slack`` extends each burst/episode forward in time: the
    queueing damage of a burst outlives the burst itself (the paper's
    fade-off stage, Eq. 10), so a request arriving just after OFF is
    still a casualty of that burst.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0: {threshold}")
    log = RequestLog.of(requests)
    # Finished requests are counted from the columns; only the slow
    # ones are rebuilt as objects.
    total = int(np.count_nonzero(~np.isnan(log.column("t_done"))))
    slow = log.take(np.flatnonzero(log.column("response_time") > threshold))
    attributions: List[RequestAttribution] = []
    for request in slow:
        rt = request.response_time
        t0, t1 = request.t_first_attempt, request.t_done
        components = component_breakdown(request, tcp=tcp)
        if components:
            dominant = max(components, key=components.get)
            dominant_time = components[dominant]
        else:
            dominant, dominant_time = "unknown", 0.0
        attributions.append(
            RequestAttribution(
                rid=request.rid,
                t_start=t0,
                t_done=t1,
                response_time=rt,
                attempts=request.attempts,
                components=components,
                dominant=dominant,
                dominant_time=dominant_time,
                bursts=[
                    b
                    for b in bursts
                    if _overlaps(t0, t1, b.start, b.end, fade_slack)
                ],
                episodes=[
                    (s, e)
                    for s, e in episodes
                    if _overlaps(t0, t1, s, e, fade_slack)
                ],
            )
        )
    return AttributionReport(
        threshold=threshold,
        total_requests=total,
        attributions=attributions,
    )


def attribute_run(
    run,
    threshold: float = 1.0,
    utilization_threshold: float = 0.95,
    bottleneck: Optional[str] = None,
    fade_slack: float = 0.5,
    requests: Optional[RequestLog] = None,
) -> AttributionReport:
    """Attribute a :class:`~repro.experiments.runner.RubbosRun`.

    Pulls the three timelines out of the run: post-warmup completed
    requests, the attacker's executed bursts, and millibottleneck
    episodes extracted from the bottleneck tier's fine-grained
    utilization trace via :meth:`TimeSeries.intervals_above`.  A
    caller that already holds the post-warmup window
    (``run.client_requests()``) passes it as ``requests``.
    """
    bottleneck = bottleneck or run.app.back.name
    episodes: List[Tuple[float, float]] = []
    monitor = run.util_monitors.get(bottleneck)
    if monitor is not None:
        episodes = monitor.series.intervals_above(utilization_threshold)
    bursts: List[BurstRecord] = []
    if run.attack is not None and run.attack.attacker is not None:
        bursts.extend(run.attack.attacker.bursts)
    # The NIC-contention attacker logs the same BurstRecord timeline,
    # so slow requests join against network bursts identically.
    net_attack = getattr(run, "net_attack", None)
    if net_attack is not None:
        bursts.extend(net_attack.bursts)
        bursts.sort(key=lambda b: b.start)
    if requests is None:
        requests = run.client_requests()
    return attribute_requests(
        requests,
        bursts=bursts,
        episodes=episodes,
        threshold=threshold,
        fade_slack=fade_slack,
    )
