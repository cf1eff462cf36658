"""Typed spans and per-request traces.

A :class:`Trace` is the span tree of one client request: a ``request``
root span covering the whole client-perceived interval, one ``attempt``
child per transmission attempt (with ``rto_wait`` siblings for the TCP
retransmission backoff between attempts), and inside each attempt a
nested ``tier`` span per tier visit holding the ``queue_wait`` /
``service`` / ``net`` leaf spans where latency actually accrues.

Spans tile their parent exactly — sibling spans are contiguous and
non-overlapping — so summing any complete layer of the tree recovers
the client-perceived response time.  That invariant is what makes the
root-cause attribution pass (:mod:`repro.analysis.attribution`) a
simple arg-max over leaf durations, and it is property-tested in
``tests/test_obs_tracer.py``.

At run time the tracer records every tree as a
:class:`~repro.obs.columnar.ColumnarTrace` (staged rows, materialized
into :class:`Span` objects on access).  :class:`Trace` builds the same
tree directly from objects; it is the reference the columnar recorder
is property-tested against in ``tests/test_obs_columnar.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Trace", "SPAN_KINDS", "LEAF_KINDS"]

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
    def closed(self) -> bool:
        return self.end is not None

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


class Trace:
    """The span tree of one request, built via a begin/end stack.

    ``begin``/``end`` manage *nesting* spans (request, attempt, tier);
    ``add`` records an already-closed *leaf* span as a child of the
    current innermost open span.  Instrumentation sites close their
    spans in LIFO order even on exceptions (each site owns a
    try/except), so the stack stays balanced.
    """

    __slots__ = ("rid", "root", "_stack")

    def __init__(self, rid: int):
        self.rid = rid
        self.root: Optional[Span] = None
        self._stack: List[Span] = []

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    @property
    def finished(self) -> bool:
        return self.root is not None and not self._stack

    def begin(self, kind: str, name: str, t: float, **attrs: Any) -> Span:
        """Open a nesting span at time ``t`` and push it."""
        span = Span(kind, name, t, attrs=attrs or None)
        if self._stack:
            self._stack[-1].children.append(span)
        elif self.root is None:
            self.root = span
        else:
            raise ValueError(
                f"trace {self.rid} already has a closed root span"
            )
        self._stack.append(span)
        return span

    def end(self, t: float, **attrs: Any) -> Span:
        """Close the innermost open span at time ``t``."""
        if not self._stack:
            raise ValueError(f"trace {self.rid} has no open span to end")
        span = self._stack.pop()
        span.end = t
        if attrs:
            span.attrs.update(attrs)
        return span

    def add(
        self, kind: str, name: str, start: float, end: float, **attrs: Any
    ) -> Span:
        """Record a closed leaf span under the current open span."""
        if not self._stack:
            raise ValueError(
                f"trace {self.rid}: add() outside any open span"
            )
        span = Span(kind, name, start, end, attrs=attrs or None)
        self._stack[-1].children.append(span)
        return span

    def walk(self) -> Iterator[Tuple[Span, int]]:
        """Yield (span, depth) pairs in pre-order."""
        if self.root is None:
            return
        stack: List[Tuple[Span, int]] = [(self.root, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    def spans(self) -> List[Span]:
        """All spans in pre-order."""
        return [span for span, _depth in self.walk()]

    def leaf_durations(self) -> Dict[str, float]:
        """Total duration per leaf component.

        Keys are ``rto_wait`` (client side, one bucket) and
        ``<kind>:<name>`` for the in-system leaves, e.g.
        ``queue_wait:mysql`` or ``service:tomcat``.
        """
        out: Dict[str, float] = {}
        for span, _depth in self.walk():
            if span.kind not in LEAF_KINDS or span.end is None:
                continue
            key = (
                "rto_wait"
                if span.kind == "rto_wait"
                else f"{span.kind}:{span.name}"
            )
            out[key] = out.get(key, 0.0) + span.duration
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = len(self.spans())
        return f"Trace(rid={self.rid}, spans={n}, open={len(self._stack)})"
