"""The object-built reference recorder for span trees.

:class:`Trace` builds a request's span tree directly from
:class:`~repro.obs.span.Span` objects, with the same recording calls,
attribute keys and key order as the run-time recorder
:class:`~repro.obs.columnar.ColumnarTrace`.  Nothing in ``src`` uses it:
it is the reference ``tests/test_obs_columnar.py`` checks the columnar
recorder against, and a hand-built trace for the attribution and
tracer tests.
"""

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.span import LEAF_KINDS, Span

__all__ = ["Trace"]


class Trace:
    """The span tree of one request, built via a begin/end stack.

    ``begin``/``end`` manage *nesting* spans (request, attempt, tier);
    ``add`` records an already-closed *leaf* span as a child of the
    current innermost open span.  Attributes come only from the
    fixed-schema calls: ``end_error``/``end_dropped``/``end_status``
    close a nesting span with its outcome, ``service``/
    ``service_aborted``/``backoff`` record annotated leaves (the same
    calls, keys and key order as
    :class:`~repro.obs.columnar.ColumnarTrace`).  Instrumentation sites
    close their spans in LIFO order even on exceptions (each site owns
    a try/except), so the stack stays balanced.
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

    def begin(self, kind: str, name: str, t: float) -> Span:
        """Open a nesting span at time ``t`` and push it."""
        span = Span(kind, name, t)
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

    def end(self, t: float) -> Span:
        """Close the innermost open span at time ``t``."""
        if not self._stack:
            raise ValueError(f"trace {self.rid} has no open span to end")
        span = self._stack.pop()
        span.end = t
        return span

    def end_error(self, t: float, error: str) -> Span:
        """Close the innermost span with ``error=<exception name>``."""
        span = self.end(t)
        span.attrs = {"error": error}
        return span

    def end_dropped(self, t: float, tier: str) -> Span:
        """Close an attempt dropped at ``tier``: ``dropped=True``."""
        span = self.end(t)
        span.attrs = {"dropped": True, "drop_tier": tier}
        return span

    def end_status(self, t: float, status: str, attempts: int) -> Span:
        """Close a request with its ``status`` and ``attempts``."""
        span = self.end(t)
        span.attrs = {"status": status, "attempts": attempts}
        return span

    def add(self, kind: str, name: str, start: float, end: float) -> Span:
        """Record a closed attribute-free leaf span."""
        return self._leaf(kind, name, start, end, None)

    def service(
        self, name: str, start: float, end: float, work: float, speed: float
    ) -> Span:
        """Record a CPU slice of ``work`` begun at ``speed``.

        Annotated with the ``effective_speed`` actually delivered (work
        / wall duration; ``speed`` for a zero-length slice).
        """
        effective = work / (end - start) if end > start else speed
        return self._leaf(
            "service", name, start, end,
            {"work": work, "speed_at_start": speed,
             "effective_speed": effective},
        )

    def service_aborted(
        self, name: str, start: float, end: float, work: float, speed: float
    ) -> Span:
        """Record a CPU slice cut short: ``aborted=True``."""
        return self._leaf(
            "service", name, start, end,
            {"work": work, "speed_at_start": speed, "aborted": True},
        )

    def backoff(
        self, kind: str, name: str, start: float, end: float, rto: float
    ) -> Span:
        """Record a retransmission backoff leaf annotated ``rto``."""
        return self._leaf(kind, name, start, end, {"rto": rto})

    def _leaf(
        self,
        kind: str,
        name: str,
        start: float,
        end: float,
        attrs: Optional[Dict[str, Any]],
    ) -> Span:
        if not self._stack:
            raise ValueError(
                f"trace {self.rid}: add() outside any open span"
            )
        span = Span(kind, name, start, end, attrs=attrs)
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
