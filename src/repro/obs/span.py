"""Typed spans: the taxonomy and the materialized span tree.

A request's span tree has a ``request`` root span covering the whole
client-perceived interval, one ``attempt`` child per transmission
attempt (with ``rto_wait`` siblings for the TCP retransmission backoff
between attempts), and inside each attempt a nested ``tier`` span per
tier visit holding the ``queue_wait`` / ``service`` / ``net`` leaf spans
where latency actually accrues.

Spans tile their parent exactly — sibling spans are contiguous and
non-overlapping — so summing any complete layer of the tree recovers
the client-perceived response time.  That invariant is what makes the
root-cause attribution pass (:mod:`repro.analysis.attribution`) a
simple arg-max over leaf durations, and it is property-tested in
``tests/test_obs_tracer.py``.

The tracer records every tree as a
:class:`~repro.obs.columnar.ColumnarTrace` (fixed-schema numeric rows)
and materializes :class:`Span` objects only on access.  The tests keep
an object-built reference recorder (``tests/_reference_trace.py``) that
the columnar one is property-tested against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["Span", "SPAN_KINDS", "LEAF_KINDS"]

#: The span taxonomy (see DESIGN.md "Observability").
SPAN_KINDS = (
    "request",     # root: client send -> response (or give-up)
    "attempt",     # one transmission attempt
    "rto_wait",    # TCP retransmission backoff after a drop
    "tier",        # one tier visit (queue + service + downstream)
    "queue_wait",  # waiting for the tier's thread/connection pool
    "service",     # a processor-sharing CPU slice
    "net",         # tier-to-tier network delay
    "net_rto",     # link-level retransmission backoff inside a hop
)

#: Kinds where latency actually accrues (no nested children).
LEAF_KINDS = ("queue_wait", "service", "net", "rto_wait", "net_rto")


class Span:
    """One typed interval in a request's life, with nested children."""

    __slots__ = ("kind", "name", "start", "end", "attrs", "children")

    def __init__(
        self,
        kind: str,
        name: str,
        start: float,
        end: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.kind = kind
        self.name = name
        self.start = start
        self.end = end
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (recursive) for JSON export."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.kind}:{self.name} "
            f"[{self.start:.6f}, {self.end if self.end is None else round(self.end, 6)}], "
            f"{len(self.children)} children)"
        )
