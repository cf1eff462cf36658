"""The compact request record: flat spans, slots, pickling, memory.

:class:`~repro.ntier.request.Request` keeps its per-visit spans in one
flat ``[tier, enter, leave, ...]`` list and rebuilds ``tier_spans`` on
access.  Hypothesis drives random visit programs — local visits,
repeated tiers and remote-tier merges through
:meth:`RemoteTierStub.serve` — against a dict-of-lists reference kept
here, the layout the record used to store: every view must agree and
``tier_response_time`` must return bit-identical floats.
"""

import gc
import pickle
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.configs import PRIVATE_CLOUD
from repro.experiments.runner import run_rubbos
from repro.ntier.remote import RemoteTierStub
from repro.ntier.request import Request
from repro.sim import Simulator
from tests.conftest import max_examples

TIERS = ("apache", "tomcat", "mysql", "memcached")

_times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
_durations = st.one_of(
    st.floats(min_value=0.0, max_value=10.0),
    st.sampled_from([0.0, 1e-9, 0.1, 0.3, 1e-3]),
)
_span = st.tuples(_times, _durations).map(lambda s: (s[0], s[0] + s[1]))
#: A local visit, or a remote reply body: ``(tier, [spans])`` pairs.
_step = st.one_of(
    st.tuples(st.just("local"), st.sampled_from(TIERS), _span),
    st.tuples(
        st.just("remote"),
        st.lists(
            st.tuples(
                st.sampled_from(TIERS), st.lists(_span, min_size=1, max_size=3)
            ),
            max_size=3,
            unique_by=lambda pair: pair[0],
        ),
    ),
)


def merge_remote(request, body):
    """Deliver one successful reply body through the real stub."""
    stub = RemoteTierStub(Simulator(), "remote", channel=None)
    serve = stub.serve(request, None)
    next(serve)  # parked on the reply
    with pytest.raises(StopIteration):
        serve.send((True, body))


def bits(value):
    return None if value is None else value.hex()


class TestFlatSpansMatchDictOfLists:
    @given(st.lists(_step, max_size=12))
    @settings(max_examples=max_examples(300), deadline=None)
    def test_views_and_sums_match_reference(self, program):
        request = Request(rid=1, page="p", demands={})
        reference = {}
        for step in program:
            if step[0] == "local":
                _, tier, (enter, leave) = step
                request.record_span(tier, enter, leave)
                reference.setdefault(tier, []).append((enter, leave))
            else:
                merge_remote(request, step[1])
                for tier, spans in step[1]:
                    reference.setdefault(tier, []).extend(spans)
        view = request.tier_spans
        assert view == reference
        assert list(view) == list(reference)  # first-visit order
        # The remote reply body: the same grouping as a list of pairs.
        assert request.span_groups() == list(reference.items())
        for tier in TIERS:
            spans = reference.get(tier)
            expected = (
                sum(leave - enter for enter, leave in spans)
                if spans
                else None
            )
            assert bits(request.tier_response_time(tier)) == bits(expected)

    def test_view_is_read_only_and_fresh(self):
        request = Request(rid=1, page="p", demands={})
        request.record_span("apache", 0.0, 1.0)
        view = request.tier_spans
        view["apache"].append((5.0, 6.0))
        view["mysql"] = [(0.0, 1.0)]
        assert request.tier_spans == {"apache": [(0.0, 1.0)]}
        with pytest.raises(AttributeError):
            request.tier_spans = {}

    def test_constructor_accepts_tier_spans(self):
        spans = {"apache": [(0.0, 2.0), (3.0, 3.5)], "mysql": [(0.5, 1.0)]}
        request = Request(rid=1, page="p", demands={}, tier_spans=spans)
        assert request.tier_spans == spans
        assert request.tier_response_time("apache") == 2.5


class TestSlots:
    def test_no_instance_dict(self):
        request = Request(rid=1, page="p", demands={})
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.tier_spanz = {}

    def test_defaults_are_fresh_per_instance(self):
        a = Request(rid=1, page="p", demands={})
        b = Request(rid=2, page="p", demands={})
        a.attempt_times.append(1.0)
        a.drop_tiers.append("web")
        assert (b.attempt_times, b.drop_tiers) == ([], [])
        assert (b.t_first_attempt, b.t_done, b.attempts) == (0.0, None, 0)
        assert (b.failed, b.weight, b.trace) == (False, 1.0, None)

    def test_equality_ignores_trace_and_records_are_unhashable(self):
        a = Request(rid=1, page="p", demands={"db": 0.1})
        b = Request(rid=1, page="p", demands={"db": 0.1}, trace=object())
        assert a == b
        b.record_span("db", 0.0, 1.0)
        assert a != b
        with pytest.raises(TypeError):
            hash(a)


class TestPickle:
    @pytest.mark.parametrize(
        "protocol", range(2, pickle.HIGHEST_PROTOCOL + 1)
    )
    def test_round_trip(self, protocol):
        request = Request(
            rid=42,
            page="StoriesOfTheDay",
            demands={"apache": 0.0003, "mysql": 0.0022},
            t_first_attempt=1.5,
            t_done=3.75,
            attempts=2,
            weight=4.0,
        )
        request.attempt_times += [1.5, 2.5]
        request.drop_tiers.append("apache")
        request.record_span("mysql", 2.6, 3.5)
        request.record_span("apache", 2.5, 3.75)
        request.record_span("mysql", 3.55, 3.6)
        copy = pickle.loads(pickle.dumps(request, protocol))
        assert copy == request
        assert copy.tier_spans == request.tier_spans
        assert copy.tier_response_time("mysql") == request.tier_response_time(
            "mysql"
        )
        assert (copy.response_time, copy.drops, copy.trace) == (2.25, 1, None)
        copy.record_span("tomcat", 2.55, 3.7)
        assert "tomcat" not in request.tier_spans


class TestRetainedMemory:
    #: Bytes per completed request of a fresh copy of the records (what
    #: an unpickle, e.g. a shard worker's pipe, materializes): ~911 B
    #: here under CPython 3.11, where the dict-of-lists-of-tuples
    #: dataclass it replaced held ~1,460 B.
    MAX_BYTES_PER_REQUEST = 1100

    def test_retained_bytes_per_request_bounded(self):
        scenario = replace(
            PRIVATE_CLOUD, users=600, duration=6.0, warmup=0.0, seed=3
        )
        requests = run_rubbos(scenario).app.completed
        blob = pickle.dumps(requests)
        gc.collect()
        tracemalloc.start()
        try:
            copy = pickle.loads(blob)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(copy) > 500
        per_request = retained / len(copy)
        assert per_request <= self.MAX_BYTES_PER_REQUEST, per_request
