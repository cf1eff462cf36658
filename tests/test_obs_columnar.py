"""Property tests: the columnar span store mirrors the object tracer.

``ColumnarTrace`` promises drop-in compatibility with
:class:`repro.obs.span.Trace`: feed both the same ``begin``/``end``/
``add`` sequence and every tree view — ``root``, ``walk``, ``spans``,
``leaf_durations``, ``finished``, ``depth`` — must agree exactly,
including for *truncated* traces whose open spans were never closed.
Hypothesis drives both recorders with random well-formed (and
randomly truncated) instrumentation sequences; deterministic tests
below cover the staged row layout, store adoption, and the error
paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.columnar import (
    END,
    KIND,
    NAME_ID,
    PARENT,
    ROW_STRIDE,
    START,
    ColumnarTrace,
    SpanStore,
)
from repro.obs.span import LEAF_KINDS, SPAN_KINDS, Span, Trace

NESTING_KINDS = tuple(k for k in SPAN_KINDS if k not in LEAF_KINDS)

_names = st.sampled_from(
    ["apache", "tomcat", "mysql", "client", "GET /rubbos", ""]
)
_attr_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-1000, 1000),
    st.booleans(),
    st.text(max_size=8),
)
_attrs = st.dictionaries(
    st.sampled_from(["work", "speed", "aborted", "note"]),
    _attr_values,
    max_size=2,
)


@st.composite
def trace_ops(draw):
    """A random well-formed instrumentation sequence.

    Respects the recorder contract (``begin`` only on an empty trace or
    under an open span, ``end``/``add`` only under an open span) but
    may *stop* with spans still open — the truncated-trace case.
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
            choices += ["end", "add"]
        if not choices:
            break
        op = draw(st.sampled_from(choices))
        attrs = draw(_attrs)
        if op == "begin":
            ops.append(
                ("begin", draw(st.sampled_from(NESTING_KINDS)),
                 draw(_names), t, attrs)
            )
            depth += 1
            rooted = True
        elif op == "end":
            ops.append(("end", t, attrs))
            depth -= 1
        else:
            start = t
            t += draw(st.floats(min_value=0.0, max_value=5.0, width=32))
            ops.append(
                ("add", draw(st.sampled_from(LEAF_KINDS)),
                 draw(_names), start, t, attrs)
            )
    # Sometimes close everything, sometimes truncate mid-request.
    if draw(st.booleans()):
        while depth > 0:
            t += 1.0
            ops.append(("end", t, {}))
            depth -= 1
    return ops


def apply_ops(trace, ops):
    for op in ops:
        if op[0] == "begin":
            _, kind, name, t, attrs = op
            trace.begin(kind, name, t, **attrs)
        elif op[0] == "end":
            _, t, attrs = op
            trace.end(t, **attrs)
        else:
            _, kind, name, start, end, attrs = op
            trace.add(kind, name, start, end, **attrs)


def span_shape(span: Span):
    """A comparable (recursive) value for one span subtree."""
    return (
        span.kind,
        span.name,
        span.start,
        span.end,
        span.attrs,
        [span_shape(c) for c in span.children],
    )


class TestTraceEquivalence:
    @given(ops=trace_ops())
    @settings(max_examples=200, deadline=None)
    def test_tree_views_match_object_tracer(self, ops):
        reference = Trace(rid=7)
        columnar = ColumnarTrace(SpanStore(), rid=7)
        apply_ops(reference, ops)
        apply_ops(columnar, ops)

        assert columnar.finished == reference.finished
        assert columnar.depth == reference.depth
        assert len(columnar) == len(reference.spans())
        if reference.root is None:
            assert columnar.root is None
        else:
            assert span_shape(columnar.root) == span_shape(reference.root)
        assert [
            (span_shape(s), d) for s, d in columnar.walk()
        ] == [(span_shape(s), d) for s, d in reference.walk()]
        # Same keys, same insertion order, same (exact) float sums.
        assert list(columnar.leaf_durations().items()) == list(
            reference.leaf_durations().items()
        )

    @given(ops=trace_ops())
    @settings(max_examples=100, deadline=None)
    def test_json_dict_form_matches(self, ops):
        reference = Trace(rid=3)
        columnar = ColumnarTrace(SpanStore(), rid=3)
        apply_ops(reference, ops)
        apply_ops(columnar, ops)
        if reference.root is None:
            assert columnar.root is None
        else:
            assert columnar.root.to_dict() == reference.root.to_dict()

    @given(ops=trace_ops())
    @settings(max_examples=100, deadline=None)
    def test_packed_columns_roundtrip(self, ops):
        """The staged rows are the span tree, in pre-order."""
        store = SpanStore()
        trace = ColumnarTrace(store, rid=11)
        apply_ops(trace, ops)
        data = trace.data
        rows = [
            data[base:base + ROW_STRIDE]
            for base in range(0, len(data), ROW_STRIDE)
        ]
        flat = trace.spans()
        assert len(rows) == len(trace) == len(flat)
        # spans() is pre-order, which is exactly row order.
        for row, span in zip(rows, flat):
            assert SPAN_KINDS[row[KIND]] == span.kind
            assert store.names[row[NAME_ID]] == span.name
            assert row[START] == span.start
            assert row[END] == span.end
        if rows:
            assert rows[0][PARENT] == -1
            # Parents precede children; no second root.
            for i, row in enumerate(rows[1:], start=1):
                assert 0 <= row[PARENT] < i * ROW_STRIDE
                assert row[PARENT] % ROW_STRIDE == 0


class TestSpanStorePacking:
    def _two_trace_store(self):
        store = SpanStore()
        a = ColumnarTrace(store, rid=1)
        a.begin("request", "client", 0.0)
        a.add("queue_wait", "apache", 0.0, 0.5)
        a.end(1.0)
        b = ColumnarTrace(store, rid=2)
        b.begin("request", "client", 2.0)
        b.begin("tier", "apache", 2.0)
        b.add("service", "apache", 2.0, 2.25, work=0.25)
        # b is truncated: tier and request never close.
        return store, a, b

    def test_truncated_trace_materializes_open_ends(self):
        _store, _a, b = self._two_trace_store()
        assert [b.data[base + END] for base in (0, 5, 10)] == [
            None, None, 2.25
        ]
        assert not b.finished
        # Truncated trace still materializes, open ends as None.
        assert b.root.end is None
        assert b.root.children[0].end is None
        assert b.root.children[0].children[0].end == 2.25

    def test_names_are_interned_across_traces(self):
        store, a, b = self._two_trace_store()
        assert len(store.names) == len(set(store.names))
        by_name = {
            store.names[trace.data[base + NAME_ID]]
            for trace in (a, b)
            for base in range(0, len(trace.data), ROW_STRIDE)
        }
        assert by_name == {"client", "apache"}

    def test_traces_enter_store_only_through_adopt(self):
        store, a, b = self._two_trace_store()
        assert store.traces == []
        store.adopt(a)
        assert store.traces == [a]
        assert len(store) == len(a) == 2
        with pytest.raises(ValueError, match="different store"):
            SpanStore().adopt(b)

    def test_attrs_survive_materialization(self):
        store, _a, b = self._two_trace_store()
        leaf = b.root.children[0].children[0]
        assert leaf.attrs == {"work": 0.25}

    def test_root_cache_only_when_finished(self):
        store = SpanStore()
        trace = ColumnarTrace(store, rid=5)
        trace.begin("request", "client", 0.0)
        first = trace.root
        assert first is not trace.root  # open: rebuilt each access
        trace.end(1.0)
        assert trace.root is trace.root  # finished: cached


class TestErrorPaths:
    def test_second_root_rejected(self):
        trace = ColumnarTrace(SpanStore(), rid=1)
        trace.begin("request", "client", 0.0)
        trace.end(1.0)
        with pytest.raises(ValueError, match="closed root"):
            trace.begin("request", "client", 2.0)

    def test_end_without_open_span(self):
        trace = ColumnarTrace(SpanStore(), rid=1)
        with pytest.raises(ValueError, match="no open span"):
            trace.end(1.0)

    def test_add_outside_open_span(self):
        trace = ColumnarTrace(SpanStore(), rid=1)
        with pytest.raises(ValueError, match="outside any open span"):
            trace.add("service", "apache", 0.0, 1.0)
