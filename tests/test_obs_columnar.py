"""Property tests: the columnar span store mirrors the object tracer.

``ColumnarTrace`` promises drop-in compatibility with
:class:`repro.obs.span.Trace`: feed both the same program of recording
calls — ``begin``/``end``/``add`` and every fixed-schema call — and
every tree view (``root``, ``walk``, ``spans``, ``to_dict``,
``leaf_durations``, ``finished``, ``depth``, ``len``) must agree
exactly, attribute value *types* included, both while the rows are
staged and after :meth:`SpanStore.adopt` packed them into one
``array('d')``; truncated traces, whose open spans were never closed,
too.  Hypothesis drives the recorders with random well-formed (and
randomly truncated) programs; deterministic tests below cover the row
layout, store adoption, retained memory per span, and the error paths.

``HYPOTHESIS_MAX_EXAMPLES`` caps the example counts (CI sets it).
"""

import gc
import json
import math
import tracemalloc
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.configs import PRIVATE_CLOUD
from repro.experiments.runner import run_rubbos
from repro.obs.columnar import (
    DEPTH_SHIFT,
    END,
    MAX_DEPTH,
    MAX_NAMES,
    NAME_SHIFT,
    START,
    ColumnarTrace,
    SpanStore,
    row_slots,
)
from repro.obs.span import LEAF_KINDS, SPAN_KINDS, Span
from tests._reference_trace import Trace
from tests.conftest import max_examples

NESTING_KINDS = tuple(k for k in SPAN_KINDS if k not in LEAF_KINDS)
#: Mask of the depth field once a head is shifted right by DEPTH_SHIFT.
DEPTH_FIELD = (1 << (NAME_SHIFT - DEPTH_SHIFT)) - 1
BACKOFF_KINDS = ("rto_wait", "net_rto")


_names = st.sampled_from(
    ["apache", "tomcat", "mysql", "client", "GET /rubbos", "", "rto-1"]
)
_strings = st.one_of(
    st.sampled_from(["ok", "failed", "TierOverflowError", "apache"]),
    st.text(max_size=8),
)
#: Every numeric type a schema value may carry; ints stay exactly
#: representable as doubles.
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**53), 2**53),
    st.booleans(),
)

#: Recording calls that close the innermost open span.
END_CALLS = ("end", "end_error", "end_dropped", "end_status")
#: Recording calls that append a closed leaf span.
LEAF_CALLS = ("add", "service", "service_aborted", "backoff")


@st.composite
def span_programs(draw):
    """A random well-formed program of recording calls.

    Respects the recorder contract (``begin`` only on an empty trace or
    under an open span, ends and leaves only under an open span) and
    covers every attribute schema, but may *stop* with spans still
    open — the truncated-trace case.
    """
    ops = []
    depth = 0
    rooted = False
    t = 0.0
    for _ in range(draw(st.integers(0, 30))):
        t += draw(st.floats(min_value=0.0, max_value=10.0, width=32))
        choices = []
        if depth > 0 or not rooted:
            choices.append("begin")
        if depth > 0:
            choices += END_CALLS + LEAF_CALLS
        if not choices:
            break
        call = draw(st.sampled_from(choices))
        if call == "begin":
            args = (draw(st.sampled_from(NESTING_KINDS)), draw(_names), t)
            depth += 1
            rooted = True
        elif call in END_CALLS:
            depth -= 1
            if call == "end":
                args = (t,)
            elif call == "end_status":
                args = (t, draw(_strings), draw(_numbers))
            else:
                args = (t, draw(_strings))
        else:
            start = t
            t += draw(st.floats(min_value=0.0, max_value=5.0, width=32))
            if call == "add":
                args = (draw(st.sampled_from(LEAF_KINDS)), draw(_names),
                        start, t)
            elif call == "backoff":
                args = (draw(st.sampled_from(BACKOFF_KINDS)),
                        draw(_names), start, t, draw(_numbers))
            else:
                args = (draw(_names), start, t, draw(_numbers),
                        draw(_numbers))
        ops.append((call, args))
    # Sometimes close everything, sometimes truncate mid-request.
    if draw(st.booleans()):
        while depth > 0:
            t += 1.0
            ops.append(("end", (t,)))
            depth -= 1
    return ops


def record(trace, ops):
    for call, args in ops:
        getattr(trace, call)(*args)
    return trace


def recorded(ops):
    """(reference Trace, staged ColumnarTrace, adopted ColumnarTrace)."""
    reference = record(Trace(rid=7), ops)
    staged = record(ColumnarTrace(SpanStore(), rid=7), ops)
    store = SpanStore()
    packed = record(ColumnarTrace(store, rid=7), ops)
    store.adopt(packed)
    return reference, staged, packed


def span_shape(span: Span):
    """A comparable (recursive) value for one span subtree.

    Attribute values carry their type: ``1``, ``1.0`` and ``True``
    compare equal in Python but must not be conflated.
    """
    return (
        span.kind,
        span.name,
        span.start,
        span.end,
        [(key, type(value), value) for key, value in span.attrs.items()],
        [span_shape(c) for c in span.children],
    )


class TestTraceEquivalence:
    @given(ops=span_programs())
    @settings(max_examples=max_examples(300), deadline=None)
    def test_tree_views_match_object_tracer(self, ops):
        reference, *columnar = recorded(ops)
        expected_walk = [(span_shape(s), d) for s, d in reference.walk()]
        for trace in columnar:
            assert trace.finished == reference.finished
            assert trace.depth == reference.depth
            assert len(trace) == len(reference.spans())
            if reference.root is None:
                assert trace.root is None
            else:
                assert span_shape(trace.root) == span_shape(reference.root)
            assert [
                (span_shape(s), d) for s, d in trace.walk()
            ] == expected_walk
            # Same keys, same insertion order, same (exact) float sums.
            assert list(trace.leaf_durations().items()) == list(
                reference.leaf_durations().items()
            )

    @given(ops=span_programs())
    @settings(max_examples=max_examples(200), deadline=None)
    def test_json_dict_form_matches(self, ops):
        # Byte-level: key order, int vs float vs bool, -0.0 and inf.
        reference, *columnar = recorded(ops)
        for trace in columnar:
            if reference.root is None:
                assert trace.root is None
            else:
                assert json.dumps(trace.root.to_dict()) == json.dumps(
                    reference.root.to_dict()
                )

    @given(ops=span_programs())
    @settings(max_examples=max_examples(100), deadline=None)
    def test_packed_columns_roundtrip(self, ops):
        """The rows are the span tree, in pre-order, depth in the head."""
        _reference, staged, packed = recorded(ops)
        for trace in (staged, packed):
            data = trace.data
            bases = []
            base = 0
            while base < len(data):
                bases.append(base)
                base += row_slots(data[base])
            assert base == len(data)
            walked = list(trace.walk())
            assert len(bases) == len(trace) == len(walked)
            # walk() is pre-order, which is exactly row order.
            names = trace.store.names
            for base, (span, depth) in zip(bases, walked):
                head = int(data[base])
                assert head == data[base] < 2**30
                assert names[head >> NAME_SHIFT] == span.name
                assert head >> DEPTH_SHIFT & DEPTH_FIELD == depth
                assert data[base + START] == span.start
                end = data[base + END]
                assert (None if math.isnan(end) else end) == span.end
            if bases:
                # The root has depth 0, and no later row does.
                depths = [
                    int(data[base]) >> DEPTH_SHIFT & DEPTH_FIELD
                    for base in bases
                ]
                assert depths[0] == 0 and 0 not in depths[1:]


class TestSpanStorePacking:
    def _two_trace_store(self):
        store = SpanStore()
        a = ColumnarTrace(store, rid=1)
        a.begin("request", "client", 0.0)
        a.add("queue_wait", "apache", 0.0, 0.5)
        a.end_status(1.0, "ok", 1)
        b = ColumnarTrace(store, rid=2)
        b.begin("request", "client", 2.0)
        b.begin("tier", "apache", 2.0)
        b.service("apache", 2.0, 2.25, 0.25, 1)
        # b is truncated: tier and request never close.
        return store, a, b

    def test_truncated_trace_materializes_open_ends(self):
        _store, _a, b = self._two_trace_store()
        assert not b.finished
        # Truncated trace still materializes, open ends as None.
        assert b.root.end is None
        assert b.root.children[0].end is None
        assert b.root.children[0].children[0].end == 2.25

    def test_names_are_interned_across_traces(self):
        # Span names and string attribute values share one table.
        store, a, b = self._two_trace_store()
        assert len(store.names) == len(set(store.names))
        assert set(store.names) == {"client", "apache", "ok"}

    def test_traces_enter_store_only_through_adopt(self):
        store, a, b = self._two_trace_store()
        assert store.traces == []
        store.adopt(a)
        assert store.traces == [a]
        assert len(store) == len(a) == 2
        with pytest.raises(ValueError, match="different store"):
            SpanStore().adopt(b)

    def test_adoption_packs_rows_into_one_array(self):
        store, a, _b = self._two_trace_store()
        assert isinstance(a.data, list)
        store.adopt(a)
        assert type(a.data) is array and a.data.typecode == "d"
        assert a._stack == ()
        assert a.root.attrs == {"status": "ok", "attempts": 1}
        assert type(a.root.attrs["attempts"]) is int

    def test_attrs_survive_materialization(self):
        store, _a, b = self._two_trace_store()
        leaf = b.root.children[0].children[0]
        assert leaf.attrs == {
            "work": 0.25, "speed_at_start": 1, "effective_speed": 1.0,
        }
        assert type(leaf.attrs["speed_at_start"]) is int

    def test_root_cache_only_when_finished(self):
        store = SpanStore()
        trace = ColumnarTrace(store, rid=5)
        trace.begin("request", "client", 0.0)
        first = trace.root
        assert first is not trace.root  # open: rebuilt each access
        trace.end(1.0)
        assert trace.root is trace.root  # finished: cached


class TestRetainedMemory:
    #: Tracer bytes retained per span.  The packed layout holds ~47 B
    #: here (8-byte slots, ~4.6 per span, plus per-trace overhead); the
    #: 5-slot row header before it held ~63 B, and the kwargs-dict and
    #: object-list layout before that ~163 B.
    MAX_BYTES_PER_SPAN = 64

    def test_retained_bytes_per_span_bounded(self):
        scenario = replace(
            PRIVATE_CLOUD, users=600, duration=6.0, warmup=0.0, seed=3
        )
        tracemalloc.start()
        try:
            run = run_rubbos(scenario, tracing=True)
            store = run.obs.tracer.store
            spans = len(store)
            gc.collect()
            with_traces = tracemalloc.get_traced_memory()[0]
            # Release every retained trace; in-flight ones stay put.
            for request in run.app.completed + run.app.failed:
                request.trace = None
            store.traces.clear()
            gc.collect()
            without = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert spans > 10_000
        per_span = (with_traces - without) / spans
        assert per_span <= self.MAX_BYTES_PER_SPAN, per_span


class TestErrorPaths:
    def test_end_without_open_span(self):
        trace = ColumnarTrace(SpanStore(), rid=1)
        with pytest.raises(ValueError, match="no open span"):
            trace.end(1.0)

    def test_add_outside_open_span(self):
        trace = ColumnarTrace(SpanStore(), rid=1)
        with pytest.raises(ValueError, match="outside any open span"):
            trace.add("service", "apache", 0.0, 1.0)

    def test_second_root_rejected(self):
        trace = ColumnarTrace(SpanStore(), rid=1)
        trace.begin("request", "client", 0.0)
        trace.end(1.0)
        with pytest.raises(ValueError, match="closed root"):
            trace.begin("request", "client", 2.0)

    def test_adopted_trace_rejects_a_second_root(self):
        store = SpanStore()
        trace = ColumnarTrace(store, rid=1)
        trace.begin("request", "client", 0.0)
        trace.end(1.0)
        store.adopt(trace)
        with pytest.raises(ValueError, match="closed root"):
            trace.begin("request", "client", 2.0)

    @pytest.mark.parametrize("call", END_CALLS)
    def test_end_calls_without_open_span(self, call):
        trace = ColumnarTrace(SpanStore(), rid=1)
        args = {"end": (1.0,), "end_status": (1.0, "ok", 1)}.get(
            call, (1.0, "x")
        )
        with pytest.raises(ValueError, match="no open span"):
            getattr(trace, call)(*args)

    @pytest.mark.parametrize("call", LEAF_CALLS)
    def test_leaf_calls_outside_open_span(self, call):
        trace = ColumnarTrace(SpanStore(), rid=1)
        args = {
            "add": ("service", "apache", 0.0, 1.0),
            "backoff": ("rto_wait", "rto-1", 0.0, 1.0, 1.0),
        }.get(call, ("apache", 0.0, 1.0, 0.5, 1.0))
        with pytest.raises(ValueError, match="outside any open span"):
            getattr(trace, call)(*args)

    def test_intern_table_refuses_name_past_limit(self):
        store = SpanStore()
        for i in range(MAX_NAMES):
            assert store.intern(f"n{i}") == i
        trace = ColumnarTrace(store, rid=1)
        trace.begin("request", "n0", 0.0)
        with pytest.raises(ValueError, match="intern table is full"):
            trace.add("queue_wait", "one-too-many", 0.0, 1.0)
        with pytest.raises(ValueError, match="intern table is full"):
            trace.end_error(1.0, "one-too-many")
        # Nothing was recorded or closed by the refused calls.
        assert len(store.names) == MAX_NAMES
        assert len(trace) == 1 and trace.depth == 1

    def test_span_at_depth_limit_rejected(self):
        trace = ColumnarTrace(SpanStore(), rid=1)
        trace.begin("request", "client", 0.0)
        for _ in range(MAX_DEPTH - 1):
            trace.begin("tier", "apache", 0.0)
        assert trace.depth == MAX_DEPTH
        # Depth MAX_DEPTH - 1 was the deepest span; no span opens below.
        for call, args in (
            ("begin", ("tier", "apache", 0.0)),
            ("add", ("queue_wait", "apache", 0.0, 1.0)),
            ("service", ("apache", 0.0, 1.0, 0.5, 1.0)),
            ("service", ("apache", 0.0, 1.0, 1, 1)),
            ("service_aborted", ("apache", 0.0, 1.0, 0.5, 1.0)),
            ("backoff", ("rto_wait", "rto-1", 0.0, 1.0, 1.0)),
        ):
            with pytest.raises(ValueError, match="depth 63"):
                getattr(trace, call)(*args)
        assert len(trace) == MAX_DEPTH
        trace.end(1.0)
        trace.add("queue_wait", "apache", 0.0, 1.0)
        assert [d for _s, d in trace.walk()][-1] == MAX_DEPTH - 1

    def test_kinds_must_match_the_row_shape(self):
        # Nesting rows reserve end-attribute slots, leaf rows do not:
        # the recorder refuses a kind on the wrong side.
        trace = ColumnarTrace(SpanStore(), rid=1)
        with pytest.raises(KeyError):
            trace.begin("service", "apache", 0.0)
        trace.begin("request", "client", 0.0)
        with pytest.raises(KeyError):
            trace.add("tier", "apache", 0.0, 1.0)
