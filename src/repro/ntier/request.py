"""Request records flowing through the simulated n-tier system.

A :class:`Request` carries its per-tier service demands (sampled by the
workload generator) and accumulates the measurements the paper reports:
per-tier response-time spans (Fig 2), client-perceived response time
including TCP retransmissions (Fig 9d), and drop/retry accounting.
While in flight it is a slotted object whose per-visit spans live in
one flat list ``[tier, enter, leave, tier, enter, leave, ...]`` in
record order.  :attr:`Request.tier_spans` rebuilds the dict-of-lists
view on access, and :meth:`Request.span_groups` the same grouping as a
list of pairs.

Every run keeps every finished request until it ends, so a finished
request is packed into a :class:`RequestLog`: typed columns, with
names and demand-key shapes interned as ids (DESIGN.md "The request
record").  Indexing or iterating a log rebuilds ``Request`` objects
equal to the recorded ones; the post-run readers use its columns.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, groupby, repeat
from operator import attrgetter, floordiv, itemgetter
from operator import index as operator_index
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.columnar import ColumnarTrace

__all__ = ["Request", "RequestLog"]


class Request:
    """One client request and everything that happened to it.

    Attributes:
        rid, page: identity (closed-loop ``rid``s are per-user counters).
        demands: per-tier CPU demand in seconds at nominal speed, e.g.
            ``{"apache": 0.0003, "tomcat": 0.0008, "mysql": 0.0022}``.
        t_first_attempt: simulation time of the client's *first*
            transmission attempt.
        t_done: completion time (response received), if completed.
        attempts: number of transmission attempts (1 = no
            retransmission).
        failed: true once the client has given up after exhausting
            retries.
        attempt_times: send time of every transmission attempt (Fig 9d
            offline replay).
        drop_tiers: tier that dropped each failed attempt, in drop order.
        weight: population scale weight: how many real users this
            request's sender stands for (1.0 in full-DES runs;
            ``users / sampled`` in hybrid fluid/DES runs, where
            throughput-style aggregates must weight each sampled request
            accordingly).
        trace: span tree, present only when a recording tracer adopted
            this request (``repro.obs``); ``None`` is the disabled fast
            path.  Not part of equality or ``repr``.
    """

    __slots__ = (
        "rid",
        "page",
        "demands",
        "t_first_attempt",
        "t_done",
        "attempts",
        "failed",
        "_spans",
        "attempt_times",
        "drop_tiers",
        "weight",
        "trace",
    )

    def __init__(
        self,
        rid: int,
        page: str,
        demands: Dict[str, float],
        t_first_attempt: float = 0.0,
        t_done: Optional[float] = None,
        attempts: int = 0,
        failed: bool = False,
        tier_spans: Optional[Dict[str, List[Tuple[float, float]]]] = None,
        attempt_times: Optional[List[float]] = None,
        drop_tiers: Optional[List[str]] = None,
        weight: float = 1.0,
        trace: Optional["ColumnarTrace"] = None,
    ):
        self.rid = rid
        self.page = page
        self.demands = demands
        self.t_first_attempt = t_first_attempt
        self.t_done = t_done
        self.attempts = attempts
        self.failed = failed
        #: Flat per-visit spans: ``tier, enter, leave`` per visit.
        self._spans: List[Any] = []
        if tier_spans:
            for tier, spans in tier_spans.items():
                for enter, leave in spans:
                    self.record_span(tier, enter, leave)
        self.attempt_times = [] if attempt_times is None else attempt_times
        self.drop_tiers = [] if drop_tiers is None else drop_tiers
        self.weight = weight
        self.trace = trace

    def demand(self, tier: str) -> float:
        """CPU demand at ``tier`` (0.0 if the page skips the tier)."""
        return self.demands.get(tier, 0.0)

    def visits(self, tier: str) -> bool:
        """Whether this request's page touches ``tier`` at all."""
        return self.demands.get(tier, 0.0) > 0.0

    def record_span(self, tier: str, enter: float, leave: float) -> None:
        """Record one tier visit's (enter, leave) span."""
        self._spans += (tier, enter, leave)

    def span_groups(self) -> List[Tuple[str, List[Tuple[float, float]]]]:
        """Per-tier (enter, leave) spans as ``(tier, spans)`` pairs.

        One pass over the flat span list: tiers in first-visit order,
        each tier's spans in record order.  A remote call's reply body
        is exactly this list.
        """
        groups: List[Tuple[str, List[Tuple[float, float]]]] = []
        by_tier: Dict[str, List[Tuple[float, float]]] = {}
        flat = iter(self._spans)
        for tier, enter, leave in zip(flat, flat, flat):
            spans = by_tier.get(tier)
            if spans is None:
                spans = by_tier[tier] = []
                groups.append((tier, spans))
            spans.append((enter, leave))
        return groups

    @property
    def tier_spans(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per-tier (enter, leave) spans, one tuple per visit.

        A fresh dict built on each access (mutating it does not touch
        the request), in :meth:`span_groups` order.
        """
        return dict(self.span_groups())

    def tier_response_time(self, tier: str) -> Optional[float]:
        """Time spent in ``tier`` (queueing + service + downstream).

        ``None`` when the request never left ``tier``.  Sums the tier's
        ``leave - enter`` with :func:`sum` in record order, so the float
        is the same as summing the per-tier span list.  A single visit,
        the common case, skips the generator: the :func:`sum` of one
        non-negative float is that float.
        """
        spans = self._spans
        tiers = spans[::3]
        visits = tiers.count(tier)
        if visits == 1:
            i = 3 * tiers.index(tier)
            return spans[i + 2] - spans[i + 1]
        if visits == 0:
            return None
        return sum(
            spans[i + 2] - spans[i + 1]
            for i in range(0, len(spans), 3)
            if spans[i] == tier
        )

    @property
    def completed(self) -> bool:
        return self.t_done is not None and not self.failed

    @property
    def response_time(self) -> Optional[float]:
        """Client-perceived response time, retransmissions included."""
        if self.t_done is None:
            return None
        return self.t_done - self.t_first_attempt

    @property
    def drops(self) -> int:
        """Number of dropped transmission attempts."""
        return len(self.drop_tiers)

    def _key(self) -> Tuple:
        return (
            self.rid,
            self.page,
            self.demands,
            self.t_first_attempt,
            self.t_done,
            self.attempts,
            self.failed,
            self._spans,
            self.attempt_times,
            self.drop_tiers,
            self.weight,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Request(rid={self.rid!r}, page={self.page!r}, "
            f"demands={self.demands!r}, "
            f"t_first_attempt={self.t_first_attempt!r}, "
            f"t_done={self.t_done!r}, attempts={self.attempts!r}, "
            f"failed={self.failed!r}, tier_spans={self.tier_spans!r}, "
            f"attempt_times={self.attempt_times!r}, "
            f"drop_tiers={self.drop_tiers!r}, weight={self.weight!r})"
        )


_FAILED = 1
#: ``t_done`` is None: the row's ``t_done`` column holds NaN.
_UNFINISHED = 2
_NAN = float("nan")

#: Requests a log holds as objects before packing them in one batch.
_BATCH = 256

#: ``(slot, typecode)`` of the columns holding one item per row.
_ROW_COLUMNS = (
    ("_rid", "q"),
    ("_page", "I"),
    ("_shape", "I"),
    ("_t_first", "d"),
    ("_t_done", "d"),
    ("_attempts", "q"),
    ("_flags", "B"),
    ("_weight", "d"),
)
#: Ragged columns: an ends slot (row ``i`` is ``ends[i]:ends[i + 1]``,
#: ``ends[0] == 0``) and the ``(slot, typecode)`` columns it indexes.
_RAGGED_COLUMNS = (
    ("_demand_end", (("_demand", "d"),)),
    (
        "_span_end",
        (("_span_tier", "I"), ("_span_enter", "d"), ("_span_leave", "d")),
    ),
    ("_attempt_end", (("_attempt_time", "d"),)),
    ("_drop_end", (("_drop_tier", "I"),)),
)
_COLUMN_SLOTS = tuple(slot for slot, _ in _ROW_COLUMNS) + tuple(
    slot
    for ends, values in _RAGGED_COLUMNS
    for slot in (ends,) + tuple(slot for slot, _ in values)
)
#: Columns of interned name ids (``_shape`` holds demand-shape ids).
_NAME_ID_SLOTS = ("_page", "_span_tier", "_drop_tier")
#: :meth:`RequestLog.column` names of the stored columns.
_STORED = {
    "rid": "_rid",
    "t_first_attempt": "_t_first",
    "t_done": "_t_done",
    "attempts": "_attempts",
    "weight": "_weight",
}


class _Interner(dict):
    """Hashable value -> dense id; ``values[id]`` maps an id back.

    Looking up a missing value interns it, so ``map(interner.
    __getitem__, names)`` packs a run of names in one C-level pass.
    """

    def __init__(self, values: Iterable[Any] = ()):
        super().__init__()
        self.values: List[Any] = []
        for value in values:
            self.__missing__(value)

    def __missing__(self, value: Any) -> int:
        index = self[value] = len(self.values)
        self.values.append(value)
        return index


def _extend_ends(ends: array, lengths: Iterable[int]) -> None:
    """Append the running totals of ``lengths`` to ``ends``."""
    totals = list(accumulate(lengths, initial=ends[-1]))
    ends.fromlist(totals[1:])


class RequestLog:
    """Append-only columnar store of finished requests.

    Requests are packed into typed :mod:`array` columns: rid, attempts,
    flags (failed, unfinished) and weight, the two times, page and tier
    names interned as ids, the demand dict as an interned key shape
    plus its values, and the spans, attempt times and drop tiers as
    ragged columns with end offsets.  A parallel list of span trees
    exists only once a traced request is appended.  No packed row is a
    Python object, so a finished request costs a couple of hundred
    bytes and nothing for the cyclic collector to scan.

    :meth:`append` holds up to ``_BATCH`` requests as objects and packs
    them together, a handful of C-level passes per column; every reader
    packs what is pending first.  A request must not change once
    appended: the log keeps its fields, not the object.

    The log reads like the list of requests it replaces: ``len``,
    iteration, indexing (a slice is a log), ``+`` and pickling.  A row
    read by index or iteration is a fresh :class:`Request` equal to
    the one appended, every float bit for bit.  The post-run readers
    use the columns instead: :meth:`between` cuts a completion-time
    window, :meth:`column` and
    :meth:`tier_response_times` return numpy arrays.
    """

    __slots__ = (
        "_names",
        "_shapes",
        "_pending",
        "_traces",
    ) + _COLUMN_SLOTS

    def __init__(self, requests: Iterable[Request] = ()):
        self._names = _Interner()
        self._shapes = _Interner()
        for slot, code in _ROW_COLUMNS:
            setattr(self, slot, array(code))
        for ends, values in _RAGGED_COLUMNS:
            setattr(self, ends, array("q", [0]))
            for slot, code in values:
                setattr(self, slot, array(code))
        #: Appended requests not packed yet.
        self._pending: List[Request] = list(requests)
        #: Span tree per row (``Request.trace``), or None while no
        #: packed request carried one.
        self._traces: Optional[List[Any]] = None

    @classmethod
    def of(cls, requests: Iterable[Request]) -> "RequestLog":
        """``requests`` itself when it is a log, else a new log of them."""
        if isinstance(requests, RequestLog):
            return requests
        return cls(requests)

    def append(self, request: Request) -> None:
        """Record one finished request as the last row."""
        pending = self._pending
        pending.append(request)
        if len(pending) >= _BATCH:
            self._pack()

    def _pack(self) -> None:
        """Pack the pending requests into the columns.

        Each column takes one C-level pass over the batch, and each
        ``array.fromlist`` converts a whole list at once.
        """
        rows = self._pending
        if not rows:
            return
        self._pending = []

        def field(name: str) -> List[Any]:
            return list(map(attrgetter(name), rows))

        names = self._names.__getitem__
        t_done = field("t_done")
        flags = list(map(bool, field("failed")))
        if None in t_done:
            for i, t in enumerate(t_done):
                if t is None:
                    t_done[i] = _NAN
                    flags[i] |= _UNFINISHED
        self._t_done.fromlist(t_done)
        self._flags.fromlist(flags)
        self._rid.fromlist(field("rid"))
        self._t_first.fromlist(field("t_first_attempt"))
        self._attempts.fromlist(field("attempts"))
        self._weight.fromlist(field("weight"))
        self._page.fromlist(list(map(names, field("page"))))
        demands = field("demands")
        shapes = self._shapes.__getitem__
        self._shape.fromlist(list(map(shapes, map(tuple, demands))))
        values = chain.from_iterable(map(dict.values, demands))
        self._demand.fromlist(list(values))
        _extend_ends(self._demand_end, map(len, demands))
        spans = field("_spans")
        flat = list(chain.from_iterable(spans))
        self._span_tier.fromlist(list(map(names, flat[::3])))
        self._span_enter.fromlist(flat[1::3])
        self._span_leave.fromlist(flat[2::3])
        visits = map(floordiv, map(len, spans), repeat(3))
        _extend_ends(self._span_end, visits)
        attempt_times = field("attempt_times")
        self._attempt_time.fromlist(list(chain.from_iterable(attempt_times)))
        _extend_ends(self._attempt_end, map(len, attempt_times))
        drop_tiers = field("drop_tiers")
        drops = map(names, chain.from_iterable(drop_tiers))
        self._drop_tier.fromlist(list(drops))
        _extend_ends(self._drop_end, map(len, drop_tiers))
        traces = field("trace")
        if self._traces is not None:
            self._traces += traces
        elif traces.count(None) != len(traces):
            self._traces = [None] * (len(self._rid) - len(traces)) + traces

    # -- the sequence view ----------------------------------------------

    def __len__(self) -> int:
        return len(self._rid) + len(self._pending)

    def __iter__(self) -> Iterator[Request]:
        self._pack()
        row = self._row
        for i in range(len(self._rid)):
            yield row(i)

    def __getitem__(self, index):
        self._pack()
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return self.take(range(start, stop, step))
            out = RequestLog()
            out._extend(self, start, max(start, stop))
            return out
        n = len(self)
        i = operator_index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("RequestLog index out of range")
        return self._row(i)

    def __add__(self, other: object) -> "RequestLog":
        if not isinstance(other, RequestLog):
            return NotImplemented
        out = RequestLog()
        out._extend(self)
        out._extend(other)
        return out

    def __eq__(self, other: object) -> bool:
        """Row-by-row equality with another log, list or tuple."""
        if not isinstance(other, (RequestLog, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<RequestLog of {len(self)} requests>"

    def __getstate__(self) -> Tuple:
        self._pack()
        return (
            self._names.values,
            self._shapes.values,
            [getattr(self, slot) for slot in _COLUMN_SLOTS],
            self._traces,
        )

    def __setstate__(self, state: Tuple) -> None:
        names, shapes, columns, self._traces = state
        self._names = _Interner(names)
        self._shapes = _Interner(shapes)
        self._pending = []
        for slot, column in zip(_COLUMN_SLOTS, columns):
            setattr(self, slot, column)

    def _row(self, i: int) -> Request:
        """Rebuild packed row ``i`` as a :class:`Request`."""
        names = self._names.values
        request = Request.__new__(Request)
        request.rid = self._rid[i]
        request.page = names[self._page[i]]
        ends = self._demand_end
        request.demands = dict(
            zip(
                self._shapes.values[self._shape[i]],
                self._demand[ends[i] : ends[i + 1]],
            )
        )
        request.t_first_attempt = self._t_first[i]
        flags = self._flags[i]
        request.t_done = None if flags & _UNFINISHED else self._t_done[i]
        request.attempts = self._attempts[i]
        request.failed = bool(flags & _FAILED)
        a, b = self._span_end[i], self._span_end[i + 1]
        spans: List[Any] = [None] * (3 * (b - a))
        spans[::3] = [names[tier] for tier in self._span_tier[a:b]]
        spans[1::3] = self._span_enter[a:b]
        spans[2::3] = self._span_leave[a:b]
        request._spans = spans
        ends = self._attempt_end
        request.attempt_times = self._attempt_time[
            ends[i] : ends[i + 1]
        ].tolist()
        ends = self._drop_end
        request.drop_tiers = [
            names[tier] for tier in self._drop_tier[ends[i] : ends[i + 1]]
        ]
        request.weight = self._weight[i]
        request.trace = None if self._traces is None else self._traces[i]
        return request

    def take(self, rows: Iterable[int]) -> "RequestLog":
        """A new log of ``rows`` (row indices), in the order given."""
        return RequestLog([self[i] for i in rows])

    def _extend(
        self, other: "RequestLog", a: int = 0, b: Optional[int] = None
    ) -> None:
        """Append rows ``a:b`` of ``other``, re-interning its ids."""
        self._pack()
        other._pack()
        if b is None:
            b = len(other)
        if a >= b:
            return
        names = [self._names[value] for value in other._names.values]
        shapes = [self._shapes[value] for value in other._shapes.values]
        ids = dict.fromkeys(_NAME_ID_SLOTS, names)
        ids["_shape"] = shapes
        n = len(self)

        def put(slot: str, items: array) -> None:
            mapping = ids.get(slot)
            if mapping is not None and mapping != list(range(len(mapping))):
                items = array(items.typecode, [mapping[i] for i in items])
            getattr(self, slot).extend(items)

        for slot, _ in _ROW_COLUMNS:
            put(slot, getattr(other, slot)[a:b])
        for ends_slot, values in _RAGGED_COLUMNS:
            ends = getattr(other, ends_slot)
            lo, hi = ends[a], ends[b]
            mine = getattr(self, ends_slot)
            shift = mine[-1] - lo
            mine.frombytes((np.array(ends[a + 1 : b + 1]) + shift).tobytes())
            for slot, _ in values:
                put(slot, getattr(other, slot)[lo:hi])
        if self._traces is not None or other._traces is not None:
            theirs = other._traces
            self._traces = (self._traces or [None] * n) + (
                [None] * (b - a) if theirs is None else theirs[a:b]
            )

    # -- columnar readers -----------------------------------------------

    def between(self, t0: float, t1: Optional[float] = None) -> "RequestLog":
        """Rows with ``t0 <= t_done < t1`` (``t1=None``: no upper bound)."""
        rows = self.rows_between(t0, t1)
        if isinstance(rows, slice):
            return self[rows]
        return self.take(rows)

    def rows_between(
        self, t0: float, t1: Optional[float] = None
    ) -> Union[slice, np.ndarray]:
        """Positions of the rows with ``t0 <= t_done < t1``.

        A simulation records requests as they finish, so its log's
        ``t_done`` never decreases and the window is one slice found
        by bisection.  Any other log (one with an unset ``t_done``,
        ``completed + failed``) is filtered by a mask into an index
        array.  Rows without a ``t_done`` never match.  Either result
        indexes a :meth:`column` array, so a reader of a few columns
        need not copy the whole window.
        """
        done = self.column("t_done")
        if not np.isnan(done).any() and (done[1:] >= done[:-1]).all():
            a = int(np.searchsorted(done, t0))
            b = len(done) if t1 is None else int(np.searchsorted(done, t1))
            return slice(a, b)
        keep = done >= t0
        if t1 is not None:
            keep &= done < t1
        return np.flatnonzero(keep)

    def column(self, name: str) -> np.ndarray:
        """One value per row as a fresh numpy array.

        ``rid``, ``t_first_attempt``, ``t_done`` (NaN when unset),
        ``attempts``, ``failed``, ``weight``, ``drops`` and
        ``response_time`` (``t_done - t_first_attempt``, NaN when
        unset): the values the rebuilt requests return, bit for bit.
        """
        self._pack()
        if name == "response_time":
            return np.array(self._t_done) - np.array(self._t_first)
        if name == "failed":
            return (np.array(self._flags) & _FAILED).astype(bool)
        if name == "drops":
            return np.diff(np.array(self._drop_end))
        return np.array(getattr(self, _STORED[name]))

    def tier_response_times(self, tier: str) -> np.ndarray:
        """Per-row :meth:`Request.tier_response_time`, NaN for ``None``.

        A single visit is its ``leave - enter``; several visits are
        summed with :func:`sum` in record order, the float the request
        itself returns.
        """
        self._pack()
        n = len(self)
        out = np.full(n, np.nan)
        tier_id = self._names.get(tier)
        if tier_id is None:
            return out
        visits = np.array(self._span_tier) == tier_id
        rows = np.repeat(np.arange(n), np.diff(np.array(self._span_end)))
        rows = rows[visits]
        times = np.array(self._span_leave) - np.array(self._span_enter)
        times = times[visits]
        single = np.bincount(rows, minlength=n)[rows] == 1
        out[rows[single]] = times[single]
        repeated = zip(rows[~single].tolist(), times[~single].tolist())
        for row, group in groupby(repeated, key=itemgetter(0)):
            out[row] = sum(time for _, time in group)
        return out
