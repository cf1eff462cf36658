"""The compact request record: flat spans, slots, the columnar log.

:class:`~repro.ntier.request.Request` keeps its per-visit spans in one
flat ``[tier, enter, leave, ...]`` list and rebuilds ``tier_spans`` on
access.  Hypothesis drives random visit programs — local visits,
repeated tiers and remote-tier merges through
:meth:`RemoteTierStub.serve` — against a dict-of-lists reference kept
here, the layout the record used to store: every view must agree and
``tier_response_time`` must return bit-identical floats.

Finished requests live in a :class:`~repro.ntier.request.RequestLog`.
Hypothesis packs random requests (repeated tiers, remote merges, drops,
several attempts, failures, weights, demand shapes, unfinished ones)
and checks that every row rebuilds equal to its request with every
float's bits intact, and that the column-filled request table equals
the per-row loop it replaced (``tests/_reference_request_table.py``).
"""

import gc
import inspect
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ntier.request as request_module
from repro.experiments.configs import PRIVATE_CLOUD
from repro.experiments.runner import run_rubbos
from repro.experiments.summary import request_table, summarize_rubbos
from repro.hardware import Host, MemorySubsystem, VirtualMachine
from repro.ntier import ClosedLoopClient, NTierApplication, Tier
from repro.ntier.remote import RemoteTierStub
from repro.ntier.request import Request, RequestLog
from repro.sim import Simulator
from tests import _reference_request_table as reference
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


_floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1.5, 7.0]),
)
_names = st.one_of(st.sampled_from(TIERS), st.text(max_size=6))


@st.composite
def _requests(draw):
    """One finished (or unfinished) request with everything set."""
    request = Request(
        rid=draw(st.integers(-(2**63), 2**63 - 1)),
        page=draw(_names),
        demands=draw(st.dictionaries(_names, _floats, max_size=4)),
        t_first_attempt=draw(_floats),
        t_done=draw(st.one_of(st.none(), _floats)),
        attempts=draw(st.integers(0, 12)),
        failed=draw(st.booleans()),
        weight=draw(_floats),
    )
    for step in draw(st.lists(_step, max_size=6)):
        if step[0] == "local":
            _, tier, (enter, leave) = step
            request.record_span(tier, enter, leave)
        else:
            merge_remote(request, step[1])
    request.attempt_times += draw(st.lists(_floats, max_size=4))
    request.drop_tiers += draw(st.lists(_names, max_size=4))
    return request


def float_bits(request):
    """Every float the request holds, as ``hex`` strings, in order."""
    floats = [request.t_first_attempt, request.weight]
    floats += request.demands.values()
    floats += request.attempt_times
    floats += [t for spans in request.tier_spans.values() for s in spans
               for t in s]
    if request.t_done is not None:
        floats.append(request.t_done)
    return [float(value).hex() for value in floats]


def assert_same_rows(log, requests, pickled=False):
    assert len(log) == len(requests)
    for row, request in zip(log, requests):
        assert row == request
        assert float_bits(row) == float_bits(request)
        assert list(row.demands) == list(request.demands)
        if pickled:  # a span tree pickles by value
            assert (row.trace is None) == (request.trace is None)
        else:
            assert row.trace is request.trace


class TestRequestLogRoundTrip:
    @given(
        st.lists(_requests(), max_size=12),
        st.sampled_from([1, 2, 5, 256]),
        st.data(),
    )
    @settings(max_examples=max_examples(100), deadline=None)
    def test_rows_rebuild_bit_identical(self, requests, batch, data):
        traced = object()
        for request in requests[::3]:
            request.trace = traced
        saved = request_module._BATCH
        request_module._BATCH = batch
        try:
            log = RequestLog()
            split = data.draw(st.integers(0, len(requests)))
            for request in requests[:split]:
                log.append(request)
            assert_same_rows(log, requests[:split])  # packs mid-stream
            for request in requests[split:]:
                log.append(request)
        finally:
            request_module._BATCH = saved
        assert_same_rows(log, requests)
        assert log == requests
        assert_same_rows(
            pickle.loads(pickle.dumps(log)), requests, pickled=True
        )
        for i in range(-len(requests), len(requests)):
            assert log[i] == requests[i]
        a = data.draw(st.integers(0, len(requests)))
        b = data.draw(st.integers(0, len(requests)))
        assert_same_rows(log[a:b], requests[a:b])
        assert_same_rows(log + log[a:], requests + requests[a:])
        tiers = TIERS + ("",)
        assert (
            request_table(log, tiers).tobytes()
            == reference.request_table(requests, tiers).tobytes()
        )

    @given(
        st.lists(_requests(), max_size=12),
        _floats,
        st.one_of(st.none(), _floats),
    )
    @settings(max_examples=max_examples(100), deadline=None)
    def test_windows_match_a_filter(self, requests, t0, t1):
        def window(rows):
            return [
                r
                for r in rows
                if r.t_done is not None
                and t0 <= r.t_done
                and (t1 is None or r.t_done < t1)
            ]

        # Finished in completion order, as a simulation records them:
        # the bisected path.  Any order: the row-by-row filter.
        finished = sorted(
            (r for r in requests if r.t_done is not None),
            key=lambda r: r.t_done,
        )
        for rows in (finished, requests):
            log = RequestLog(rows)
            assert_same_rows(log.between(t0, t1), window(rows))
            # The row positions pick the same rows out of a column.
            picked = log.column("rid")[log.rows_between(t0, t1)]
            assert picked.tolist() == [r.rid for r in window(rows)]


class TestColumnarReaders:
    """The readers that use columns agree with the rebuilt rows."""

    @pytest.fixture(scope="class")
    def attacked(self):
        # 3000 users against the 2600-user deployment: the front tier
        # drops, so requests retransmit.
        return run_rubbos(replace(PRIVATE_CLOUD, users=3000, duration=10.0))

    def test_attack_effect_counts_the_window(self, attacked):
        effect = attacked.attack.effect()
        t0, t1 = effect.window
        window = [r for r in attacked.app.completed if t0 <= r.t_done < t1]
        failed = [r for r in attacked.app.failed if t0 <= r.t_done < t1]
        rts = np.array([r.response_time for r in window])
        assert effect.requests == len(window)
        assert effect.failed == len(failed)
        assert effect.retransmitted == sum(r.attempts > 1 for r in window)
        assert effect.retransmitted > 0
        assert effect.percentiles == {
            p: float(np.percentile(rts, p)) for p in effect.percentiles
        }
        assert effect.fraction_above_rto == float(np.mean(rts > 1.0))

    def test_request_table_of_a_run(self, attacked):
        requests = attacked.client_requests()
        assert len(requests) > 500
        tiers = ("apache", "tomcat", "mysql")
        assert (
            request_table(requests, tiers).tobytes()
            == reference.request_table(list(requests), tiers).tobytes()
        )


class TestRetainedMemory:
    #: Bytes per completed request of a fresh copy of the completed
    #: log (what an unpickle, e.g. a shard worker's pipe, materializes):
    #: 184-185 B under CPython 3.11 at seeds 3, 7 and 11, where the
    #: list of slotted requests held ~911 B and the dict-of-lists
    #: dataclass before it ~1,460 B.  The bound leaves ~8% for other
    #: interpreters: the log's ~20 array headers and its intern tables
    #: are a few kB in all, ~3 B per request at this size.
    MAX_BYTES_PER_REQUEST = 200

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

    #: ``tracemalloc`` peak of summarizing the registered fig9 run
    #: (private-cloud, 23,225 completions): 7.20 MB under CPython 3.11
    #: with one post-warmup window shared by the request table and the
    #: attribution, against 9.47 MB when each cut its own copy and the
    #: attack effect's window was still alive.  The summary is numpy
    #: arrays and typed columns, so the ~10% margin is for allocator
    #: detail, and a second window copy (3.5 MB) fails it.
    MAX_SUMMARY_PEAK_BYTES = 8_000_000

    def test_summary_peak_bounded(self):
        run = run_rubbos(PRIVATE_CLOUD)
        gc.collect()
        tracemalloc.start()
        try:
            summary = summarize_rubbos(run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.app.completed) == 23225
        assert summary.attribution is not None
        assert peak <= self.MAX_SUMMARY_PEAK_BYTES, peak

    #: Bytes a closed-loop user holds while it thinks: its client, its
    #: session generator, its process and its wake entry.  835-836 B
    #: under CPython 3.11 at 3,000 and 5,000 users; a user that kept
    #: its last finished request through the think time held 1,646 B
    #: (the request, its demand dict, three lists and their floats).
    #: The bound leaves ~40% for other interpreters' frame layouts and
    #: still fails a user that keeps its request.
    MAX_BYTES_PER_THINKING_USER = 1200

    def test_retained_bytes_per_thinking_user_bounded(self):
        users = 3000
        sim = Simulator()
        tiers = []
        for name in ("front", "back"):
            host = Host(f"h-{name}")
            vm = VirtualMachine(sim, name, vcpus=4)
            vm.attach(host, MemorySubsystem(host), package=0)
            tiers.append(Tier(sim, name, vm, concurrency=16, net_delay=0.0))
        app = NTierApplication(sim, tiers)
        rng = np.random.default_rng(5)

        def factory(rid):
            return Request(rid, "p", {"front": 1e-4, "back": 2e-4})

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            clients = [
                ClosedLoopClient(sim, app, factory, think_time=1000.0, rng=rng)
                for _ in range(users)
            ]
            for i, client in enumerate(clients):
                sim.process(client.run(start_delay=i / users))
            sim.run(until=5.0)
            app.completed.column("t_done")  # pack the last batch
            retained = tracemalloc.get_traced_memory()[0] - before
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # Every user has finished one request and thinks (mean 1000 s).
        assert len(app.completed) >= users
        assert sim.now == 5.0
        # The log's own bytes (its columns and intern tables, the code
        # from ``_Interner`` on) are the requests', bounded above.
        log_from = inspect.getsourcelines(request_module._Interner)[1]
        log_bytes = sum(
            trace.size
            for trace in snapshot.traces
            if trace.traceback[0].filename == request_module.__file__
            and trace.traceback[0].lineno >= log_from
        )
        per_user = (retained - log_bytes) / users
        assert per_user <= self.MAX_BYTES_PER_THINKING_USER, per_user
