"""Columnar span storage: packed rows instead of per-span objects.

At population scale per-span objects dominate traced-run cost: a 60 s
run of 10k users records ~1M spans, and one
:class:`~repro.obs.span.Span` plus a children list and an attribute
dict each roughly doubles the wall time of the whole simulation in
allocation and GC traffic.  This module stores every span of a trace as
one *row* of numbers in a single flat sequence per trace — a
:data:`ROW_HEADER`-slot header ``(head, start, end)`` followed by the
span's attribute values — and materializes
:class:`~repro.obs.span.Span` trees lazily, only for the traces an
exporter or analysis actually touches.

Design notes:

* **Fixed-schema recording.**  Every attribute-carrying span comes
  from one fixed-arity call per attribute *schema*
  (:data:`SCHEMAS`): :meth:`ColumnarTrace.service`,
  :meth:`~ColumnarTrace.service_aborted`,
  :meth:`~ColumnarTrace.backoff`, :meth:`~ColumnarTrace.end_error`,
  :meth:`~ColumnarTrace.end_dropped` and
  :meth:`~ColumnarTrace.end_status`; ``begin``/``end``/``add`` record
  attribute-free spans.  Each call writes its values as extra numeric
  slots of the span's row: numbers as they are, strings as ids from
  the store's intern table, constants (``dropped=True``,
  ``aborted=True``) not at all.  The row's *code* packs the span
  kind, the schema, and a 2-bit type tag per numeric value, so
  materialization restores the keys, their order and each value's
  Python type (float, int or bool).  No kwargs dict is built on the
  hot path and none is kept.
* **One head slot.**  A row's first slot packs its code, its depth in
  the tree and its name id: ``code | depth << DEPTH_SHIFT | name id <<
  NAME_SHIFT``.  The store precomputes, per (code, name), the heads of
  every depth, so recording a span picks up a shared int instead of
  building one.  The head stays below 2**30 (one CPython digit, exact
  in a double): the intern table refuses a name past
  :data:`MAX_NAMES`, and a span may not open at depth
  :data:`MAX_DEPTH` or deeper.  Both raise ``ValueError``; nothing is
  wrapped or truncated.
* **Row lengths.**  A leaf row (``add`` and the leaf schemas) is the
  header plus its schema's slots.  A nesting row (``begin``) always
  reserves :data:`NEST_ATTRS` slots, because its attributes arrive at
  ``end_*`` time, after its children's rows; the reserved slots stay
  unused when a plain ``end`` closes it.  Readers step from row to row
  by :func:`row_slots` of the head.
* **Staging, then packing.**  Instrumentation sites run inside the
  simulation hot loop, so a trace stages its rows in a plain list (one
  ``list.extend`` per span; ``end`` writes slots in place).  When the
  tracer keeps a finished trace, :meth:`SpanStore.adopt` packs the list
  into one ``array('d')`` with a single C-level call: after adoption no
  dict, tuple or float object survives per span — 8 bytes per slot.
  Values round-trip exactly (times are Python floats, i.e. doubles).
  Open spans stage ``end`` as NaN and materialize with ``end=None``
  (a trace truncated at the simulation horizon).
* **Row order is pre-order.**  Every span row is appended after its
  parent's row and after all rows of earlier siblings' subtrees, so a
  trace's row sequence is exactly the pre-order walk of its finished
  tree (the first row is always the root), and a row's parent is the
  latest earlier row one level up: readers rebuild the tree from the
  depths alone.
  :meth:`ColumnarTrace.leaf_durations` folds leaf durations straight
  off the rows — same keys, same insertion order, same sums as
  the reference recorder's ``leaf_durations`` — without building a
  single ``Span``.
* **Traces enter the store only through** :meth:`SpanStore.adopt`,
  when the tracer's retention decision keeps them at finish.

``ColumnarTrace`` is API-compatible with the object-built reference
recorder in ``tests/_reference_trace.py`` (the recording calls above plus
``root``/``walk``/``spans``/``leaf_durations``/``finished``/``depth``),
so exporters and :mod:`repro.analysis.attribution` work on either;
equivalence, before and after adoption, is property-tested in
``tests/test_obs_columnar.py``.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .span import LEAF_KINDS, SPAN_KINDS, Span

__all__ = [
    "SpanStore",
    "ColumnarTrace",
    "SCHEMAS",
    "ROW_HEADER",
    "NEST_ATTRS",
    "row_slots",
]

#: Slot offsets of a row's header inside a trace's flat ``data``; slot 0
#: holds the row's head.
START, END = 1, 2

#: Header slots per row; attribute slots follow.
ROW_HEADER = 3

#: Head layout: ``code | depth << DEPTH_SHIFT | name id << NAME_SHIFT``.
DEPTH_SHIFT = 12
NAME_SHIFT = 18

#: Spans open at depths ``0 .. MAX_DEPTH - 1``; the intern table holds
#: at most ``MAX_NAMES`` strings.  Together they keep every head below
#: 2**30.
MAX_DEPTH = (1 << (NAME_SHIFT - DEPTH_SHIFT)) - 1
MAX_NAMES = 1 << (30 - NAME_SHIFT)

#: Attribute slots every nesting row reserves for its ``end_*`` call.
NEST_ATTRS = 2

#: Value kinds of a schema entry: a numeric slot, an interned-string
#: slot; any other entry is a constant restored without a slot.
NUM = "num"
STR = "str"

#: Attribute schemas, indexed by schema number: ``(key, NUM | STR |
#: constant)`` pairs in the order the span's attrs dict lists them.
SCHEMAS: Tuple[Tuple[Tuple[str, Any], ...], ...] = (
    (),
    # service(): a processor-sharing CPU slice.
    (("work", NUM), ("speed_at_start", NUM), ("effective_speed", NUM)),
    # service_aborted(): a slice cut short by an exception.
    (("work", NUM), ("speed_at_start", NUM), ("aborted", True)),
    # backoff(): an rto_wait / net_rto retransmission backoff.
    (("rto", NUM),),
    # end_error(): a tier visit that raised.
    (("error", STR),),
    # end_dropped(): a transmission attempt dropped at a tier.
    (("dropped", True), ("drop_tier", STR)),
    # end_status(): a request's outcome.
    (("status", STR), ("attempts", NUM)),
)
_SERVICE, _ABORTED, _BACKOFF, _ERROR, _DROPPED, _STATUS = range(
    1, len(SCHEMAS)
)

# Code layout: kind | schema << 3 | (2-bit type tag per NUM value) << 6.
_KIND_BITS = 3
_SCHEMA_BITS = 3
_TAG_SHIFT = _KIND_BITS + _SCHEMA_BITS
_KIND_MASK = (1 << _KIND_BITS) - 1
_SCHEMA_MASK = (1 << _SCHEMA_BITS) - 1
_LAYOUT_MASK = (1 << _TAG_SHIFT) - 1
_CODE_MASK = (1 << DEPTH_SHIFT) - 1
_DEPTH_MASK = (1 << (NAME_SHIFT - DEPTH_SHIFT)) - 1

#: Type tags of numeric values; any other type is stored as a float.
_TAGS = {float: 0, int: 1, bool: 2}
_RESTORE = (float, int, bool)

_KIND_CODES = {kind: code for code, kind in enumerate(SPAN_KINDS)}
_NEST_CODES = {
    kind: code for kind, code in _KIND_CODES.items() if kind not in LEAF_KINDS
}
_LEAF_CODES = {kind: _KIND_CODES[kind] for kind in LEAF_KINDS}
_LEAF_KIND_SET = frozenset(_LEAF_CODES.values())
_RTO_CODE = _KIND_CODES["rto_wait"]
assert len(SPAN_KINDS) <= 1 << _KIND_BITS
assert len(SCHEMAS) <= 1 << _SCHEMA_BITS
assert _TAG_SHIFT + 2 * max(map(len, SCHEMAS)) <= DEPTH_SHIFT
assert max(
    sum(spec in (NUM, STR) for _key, spec in SCHEMAS[schema])
    for schema in (_ERROR, _DROPPED, _STATUS)
) <= NEST_ATTRS


def _schema_bits(schema: int) -> int:
    return schema << _KIND_BITS


def _tag_bits(*values: Any) -> int:
    """The type tags of a schema's numeric values, shifted into place."""
    tags = 0
    for i, value in enumerate(values):
        tags |= _TAGS.get(type(value), 0) << (2 * i)
    return tags << _TAG_SHIFT


# Precomputed codes of the common all-float (attempts: int) rows.
_SERVICE_CODE = _KIND_CODES["service"] | _schema_bits(_SERVICE)
_ABORTED_CODE = _KIND_CODES["service"] | _schema_bits(_ABORTED)
_ERROR_BITS = _schema_bits(_ERROR)
_DROPPED_BITS = _schema_bits(_DROPPED)
_STATUS_BITS = _schema_bits(_STATUS)
_STATUS_INT_BITS = _STATUS_BITS | _tag_bits(0)
_BACKOFF_BITS = _schema_bits(_BACKOFF)

#: Slots per row, indexed by ``code & _LAYOUT_MASK`` (kind and schema).
_ROW_SLOTS = [0] * (1 << _TAG_SHIFT)
for _kind, _code in _KIND_CODES.items():
    for _schema, _entries in enumerate(SCHEMAS):
        _ROW_SLOTS[_code | _schema_bits(_schema)] = ROW_HEADER + (
            NEST_ATTRS
            if _kind in _NEST_CODES
            else sum(spec in (NUM, STR) for _key, spec in _entries)
        )

#: Staged ``end`` of a still-open span.
_OPEN = math.nan


def row_slots(head: float) -> int:
    """Slots taken by a row whose head slot holds ``head``."""
    return _ROW_SLOTS[int(head) & _LAYOUT_MASK]


def _row_bases(data: Sequence) -> Iterator[int]:
    """Base offsets of the rows of one trace's flat ``data``, in order."""
    base = 0
    size = len(data)
    slots = _ROW_SLOTS
    while base < size:
        yield base
        base += slots[int(data[base]) & _LAYOUT_MASK]


def _decode_attrs(
    code: int, data: Sequence, slot: int, names: List[str]
) -> Dict[str, Any]:
    """Rebuild one row's attrs dict from its code and value slots."""
    tags = code >> _TAG_SHIFT
    attrs: Dict[str, Any] = {}
    for key, spec in SCHEMAS[(code >> _KIND_BITS) & _SCHEMA_MASK]:
        if spec == NUM:
            attrs[key] = _RESTORE[tags & 3](data[slot])
            tags >>= 2
            slot += 1
        elif spec == STR:
            attrs[key] = names[int(data[slot])]
            slot += 1
        else:
            attrs[key] = spec
    return attrs


class SpanStore:
    """The shared backing of every trace in one run.

    Owns the intern table (span names and string attribute values), the
    row heads precomputed from it, and the registry of retained traces
    (in retention order); the rows themselves live on the traces.
    """

    __slots__ = (
        "traces", "names", "_name_codes", "_heads", "_nest_heads",
        "_leaf_heads", "_service_heads",
    )

    def __init__(self) -> None:
        #: Every retained :class:`ColumnarTrace`, in adoption order.
        self.traces: List["ColumnarTrace"] = []
        #: Interned strings; head name ids and string slots index this.
        self.names: List[str] = []
        self._name_codes: Dict[str, int] = {}
        #: code -> name -> the head of that row at each depth.
        self._heads: Dict[int, Dict[str, List[int]]] = {
            code: {} for code in (*_KIND_CODES.values(), _SERVICE_CODE)
        }
        # The same tables by kind, for begin() and add(): an unknown or
        # wrong-shaped kind raises KeyError.
        self._nest_heads = {
            kind: self._heads[code] for kind, code in _NEST_CODES.items()
        }
        self._leaf_heads = {
            kind: self._heads[code] for kind, code in _LEAF_CODES.items()
        }
        self._service_heads = self._heads[_SERVICE_CODE]

    def __len__(self) -> int:
        """Retained spans across every adopted trace."""
        return sum(len(trace) for trace in self.traces)

    def intern(self, name: str) -> int:
        """The stable id of ``name``, assigning one on first sight."""
        nid = self._name_codes.get(name)
        if nid is None:
            nid = len(self.names)
            if nid >= MAX_NAMES:
                raise ValueError(
                    f"intern table is full ({MAX_NAMES} names); "
                    f"cannot add {name!r}"
                )
            self._name_codes[name] = nid
            self.names.append(name)
        return nid

    def heads(self, code: int, name: str) -> List[int]:
        """The heads of a ``code`` row named ``name``, indexed by depth."""
        by_name = self._heads.get(code)
        if by_name is None:
            by_name = self._heads[code] = {}
        heads = by_name.get(name)
        if heads is None:
            row = code | self.intern(name) << NAME_SHIFT
            heads = by_name[name] = [
                row | depth << DEPTH_SHIFT for depth in range(MAX_DEPTH)
            ]
        return heads

    def adopt(self, trace: "ColumnarTrace") -> None:
        """Retain ``trace``: the one way a trace enters the store.

        The tracer (:mod:`repro.obs.tracer`) records every request
        speculatively and calls this when its retention decision keeps
        one at finish.  Until then a trace's rows stage in a list on the
        trace object only; unretained traces are simply dropped on the
        floor and garbage-collected, which is what bounds traced memory
        at full-population scale.  Adoption packs the staged rows into
        one ``array('d')``.
        """
        if trace.store is not self:
            raise ValueError("trace belongs to a different store")
        trace.data = array("d", trace.data)
        if not trace._stack:
            # A finished trace never pushes again (begin() refuses a
            # second root), so drop the per-trace stack list.
            trace._stack = ()
        self.traces.append(trace)


class ColumnarTrace:
    """One request's span tree, as packed rows in one flat sequence.

    Drop-in compatible with the object-built reference recorder
    (``tests/_reference_trace.py``); the tree
    view (``root``/``walk``/``spans``) is materialized on first access
    and cached once the trace is finished.  ``begin`` takes a nesting
    kind and ``add``/``backoff`` a leaf kind (others raise KeyError).
    """

    __slots__ = (
        "store", "rid", "data", "_stack", "_tree", "_name_codes",
    )

    def __init__(self, store: SpanStore, rid: int):
        self.store = store
        self.rid = rid
        #: Flat rows in creation (= pre-) order; the row at offset 0 is
        #: the root.  A list while recording, an ``array('d')`` once
        #: adopted.
        self.data: Any = []
        #: Base offsets of the open spans; its length is the depth of
        #: the next span.
        self._stack: Any = []
        self._tree: Optional[Span] = None
        # Direct ref to the shared intern table: one dict probe on the
        # end_* paths instead of two attribute hops through the store.
        # The head tables are reached through the store: a slot per
        # table would cost every retained trace 8 bytes.
        self._name_codes = store._name_codes

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    @property
    def finished(self) -> bool:
        return bool(self.data) and not self._stack

    def __len__(self) -> int:
        return sum(1 for _base in _row_bases(self.data))

    def _too_deep(self) -> ValueError:
        return ValueError(
            f"trace {self.rid}: a span would open at depth "
            f"{len(self._stack)} (limit {MAX_DEPTH - 1})"
        )

    # -- recording (hot path) ------------------------------------------

    def begin(self, kind: str, name: str, t: float) -> int:
        """Open a nesting span at time ``t``; returns its base offset."""
        stack = self._stack
        data = self.data
        if data and not stack:
            raise ValueError(
                f"trace {self.rid} already has a closed root span"
            )
        heads = self.store._nest_heads[kind].get(name)
        if heads is None:
            heads = self.store.heads(_NEST_CODES[kind], name)
        try:
            head = heads[len(stack)]
        except IndexError:
            raise self._too_deep() from None
        base = len(data)
        data.extend((head, t, _OPEN, 0, 0))
        stack.append(base)
        return base

    def end(self, t: float) -> int:
        """Close the innermost open span at time ``t``."""
        stack = self._stack
        if not stack:
            raise ValueError(f"trace {self.rid} has no open span to end")
        base = stack.pop()
        self.data[base + END] = t
        return base

    def _end_with(self, t: float, bits: int, value: str) -> int:
        """Close the innermost span with schema ``bits`` and a string."""
        if not self._stack:
            raise ValueError(f"trace {self.rid} has no open span to end")
        sid = self._name_codes.get(value)
        if sid is None:
            sid = self.store.intern(value)
        base = self.end(t)
        data = self.data
        data[base] += bits
        data[base + ROW_HEADER] = sid
        return base

    def end_error(self, t: float, error: str) -> int:
        """Close the innermost span with ``error=<exception name>``."""
        return self._end_with(t, _ERROR_BITS, error)

    def end_dropped(self, t: float, tier: str) -> int:
        """Close an attempt dropped at ``tier``: ``dropped=True``."""
        return self._end_with(t, _DROPPED_BITS, tier)

    def end_status(self, t: float, status: str, attempts: int) -> int:
        """Close a request with its ``status`` and ``attempts``."""
        stack = self._stack
        if not stack:
            raise ValueError(f"trace {self.rid} has no open span to end")
        sid = self._name_codes.get(status)
        if sid is None:
            sid = self.store.intern(status)
        base = stack.pop()
        data = self.data
        data[base] += (
            _STATUS_INT_BITS
            if type(attempts) is int
            else _STATUS_BITS | _tag_bits(attempts)
        )
        data[base + END] = t
        data[base + ROW_HEADER] = sid
        data[base + ROW_HEADER + 1] = attempts
        return base

    def _leaf_head(self, code: int, name: str) -> int:
        """The head of a leaf row about to be appended."""
        stack = self._stack
        if not stack:
            raise ValueError(
                f"trace {self.rid}: add() outside any open span"
            )
        try:
            return self.store.heads(code, name)[len(stack)]
        except IndexError:
            raise self._too_deep() from None

    def add(self, kind: str, name: str, start: float, end: float) -> int:
        """Record a closed attribute-free leaf span."""
        stack = self._stack
        if not stack:
            raise ValueError(
                f"trace {self.rid}: add() outside any open span"
            )
        heads = self.store._leaf_heads[kind].get(name)
        if heads is None:
            heads = self.store.heads(_LEAF_CODES[kind], name)
        try:
            head = heads[len(stack)]
        except IndexError:
            raise self._too_deep() from None
        data = self.data
        base = len(data)
        data.extend((head, start, end))
        return base

    def service(
        self, name: str, start: float, end: float, work: float, speed: float
    ) -> int:
        """Record a CPU slice of ``work`` begun at ``speed``.

        Annotated ``work``, ``speed_at_start`` and the
        ``effective_speed`` actually delivered (work / wall duration;
        ``speed`` for a zero-length slice).
        """
        stack = self._stack
        if not stack:
            raise ValueError(
                f"trace {self.rid}: add() outside any open span"
            )
        effective = work / (end - start) if end > start else speed
        if type(work) is float and type(speed) is float:
            heads = self.store._service_heads.get(name)
            if heads is None:
                heads = self.store.heads(_SERVICE_CODE, name)
            try:
                head = heads[len(stack)]
            except IndexError:
                raise self._too_deep() from None
        else:
            head = self._leaf_head(
                _SERVICE_CODE | _tag_bits(work, speed, effective), name
            )
        data = self.data
        base = len(data)
        data.extend((head, start, end, work, speed, effective))
        return base

    def service_aborted(
        self, name: str, start: float, end: float, work: float, speed: float
    ) -> int:
        """Record a CPU slice cut short: ``aborted=True``."""
        head = self._leaf_head(_ABORTED_CODE | _tag_bits(work, speed), name)
        data = self.data
        base = len(data)
        data.extend((head, start, end, work, speed))
        return base

    def backoff(
        self, kind: str, name: str, start: float, end: float, rto: float
    ) -> int:
        """Record a retransmission backoff leaf annotated ``rto``."""
        head = self._leaf_head(
            _LEAF_CODES[kind] | _BACKOFF_BITS | _tag_bits(rto), name
        )
        data = self.data
        base = len(data)
        data.extend((head, start, end, rto))
        return base

    # -- tree views (lazy) ---------------------------------------------

    def _materialize(self) -> Optional[Span]:
        data = self.data
        names = self.store.names
        #: The latest span at each depth: a row's parent is path[depth - 1].
        path: List[Span] = []
        for base in _row_bases(data):
            head = int(data[base])
            code = head & _CODE_MASK
            end = data[base + END]
            span = Span(
                SPAN_KINDS[code & _KIND_MASK],
                names[head >> NAME_SHIFT],
                data[base + START],
                None if end != end else end,
                attrs=(
                    _decode_attrs(code, data, base + ROW_HEADER, names)
                    if code >> _KIND_BITS & _SCHEMA_MASK
                    else None
                ),
            )
            depth = head >> DEPTH_SHIFT & _DEPTH_MASK
            if depth:
                path[depth - 1].children.append(span)
            if depth < len(path):
                path[depth] = span
            else:
                path.append(span)
        return path[0] if path else None

    @property
    def root(self) -> Optional[Span]:
        """The materialized span tree (cached once finished)."""
        if self._tree is not None:
            return self._tree
        tree = self._materialize()
        if self.finished:
            self._tree = tree
        return tree

    def walk(self) -> Iterator[Tuple[Span, int]]:
        """Yield (span, depth) pairs in pre-order."""
        root = self.root
        if root is None:
            return
        stack: List[Tuple[Span, int]] = [(root, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    def spans(self) -> List[Span]:
        """All spans in pre-order."""
        return [span for span, _depth in self.walk()]

    def leaf_durations(self) -> Dict[str, float]:
        """Total duration per leaf component, straight off the rows.

        Row order is pre-order, so keys appear in the same order (and
        with the same sums) as the reference recorder's
        ``leaf_durations`` on the equivalent object trace.
        """
        data = self.data
        names = self.store.names
        out: Dict[str, float] = {}
        for base in _row_bases(data):
            head = int(data[base])
            kind = head & _KIND_MASK
            if kind not in _LEAF_KIND_SET:
                continue
            end = data[base + END]
            if end != end:
                continue
            key = (
                "rto_wait"
                if kind == _RTO_CODE
                else f"{SPAN_KINDS[kind]}:{names[head >> NAME_SHIFT]}"
            )
            duration = end - data[base + START]
            if key in out:
                out[key] += duration
            else:
                out[key] = duration
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarTrace(rid={self.rid}, spans={len(self)}, "
            f"open={len(self._stack)})"
        )
