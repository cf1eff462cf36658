"""The run-time PS server and queue chain against their references.

``tests/_reference_psserver.py`` and ``tests/_reference_queues.py``
keep the former implementations: the PS server that walked its job
table three times per completion, and the chain whose traversals ran in
a nested generator.  Hypothesis drives random programs on a reference
and on the run-time object, each on its own simulator, and asserts that
everything observable is equal, floats by ``float.hex``: completion and
delivery times and their order, drops and marks, integrators, counters,
and the number of timed events scheduled (``Simulator._seq``), which is
what the pinned event counts of ``tests/test_determinism.py`` measure.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FiniteQueue, NetworkOverflowError, QueueChain
from repro.ntier import RetransmissionPolicy
from repro.sim import ProcessorSharingServer, Simulator
from tests._reference_psserver import (
    ProcessorSharingServer as ReferencePSServer,
)
from tests._reference_queues import ReferenceQueueChain
from tests.conftest import max_examples

# -- processor sharing ------------------------------------------------------

#: A small pool, so programs submit tied work values; 0.0 completes at
#: submission, 1e-10 is below the server's completion epsilon.
WORK = st.sampled_from([0.0, 1e-10, 0.001, 0.125, 0.25, 0.3, 0.5, 1.0])
DT = st.sampled_from([0.0, 1e-10, 0.001, 0.05, 0.125, 0.3, 1.0])

PS_OP = st.one_of(
    st.tuples(st.just("submit"), WORK),
    st.tuples(st.just("submit"), st.floats(1e-6, 2.0)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("speed"), st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.0])),
    st.tuples(
        st.just("background"), st.sampled_from([0.0, 0.5, 1.0, 2.5])
    ),
    st.tuples(st.just("advance"), DT),
    st.tuples(st.just("advance"), st.floats(0.0, 1.0)),
    st.tuples(st.just("probe"), st.just(None)),
)


def run_ps_program(server_cls, cores, program):
    """Play ``program`` on a fresh server; return what it observed."""
    sim = Simulator()
    server = server_cls(sim, cores=cores)
    jobs = []
    completions = []
    probes = []
    for op, arg in program:
        if op == "submit":
            done = server.execute(arg)
            index = len(jobs)
            done.callbacks.append(
                lambda _ev, index=index: completions.append(
                    (index, sim.now.hex())
                )
            )
            jobs.append(done)
        elif op == "cancel":
            if jobs:
                server.cancel(jobs[arg % len(jobs)])
        elif op == "speed":
            server.set_speed(arg)
        elif op == "background":
            server.set_background_load(arg)
        elif op == "advance":
            sim.run(until=sim.now + arg)
        else:
            # A mid-interval read splits the next advance in two.
            probes.append(server.busy_core_seconds.hex())
    # Drain: a stalled server needs its speed back.
    server.set_speed(1.0)
    sim.run()
    return {
        "completions": completions,
        "probes": probes,
        "busy": server.busy_core_seconds.hex(),
        "work": server.work_done.hex(),
        "completed": server.jobs_completed,
        "submitted": server.jobs_submitted,
        "active": server.active_jobs,
        "now": sim.now.hex(),
        "timed_events": sim._seq,
    }


class TestPSServerMatchesReference:
    @settings(max_examples=max_examples(200), deadline=None)
    @given(
        cores=st.integers(1, 4),
        program=st.lists(PS_OP, min_size=1, max_size=60),
    )
    def test_random_programs_are_float_identical(self, cores, program):
        assert run_ps_program(
            ProcessorSharingServer, cores, program
        ) == run_ps_program(ReferencePSServer, cores, program)

    def test_tied_completions_succeed_in_submission_order(self):
        program = [("submit", 0.5)] * 3 + [("submit", 0.25)]
        observed = run_ps_program(ProcessorSharingServer, 2, program)
        assert [index for index, _ in observed["completions"]] == [
            3, 0, 1, 2,
        ]
        assert observed == run_ps_program(ReferencePSServer, 2, program)


# -- queue chain ------------------------------------------------------------

STAGE = st.tuples(
    st.sampled_from([500.0, 1000.0, 4000.0]),  # rate
    st.integers(1, 4),  # buffer
    st.sampled_from([None, 0.25, 0.5, 1.0]),  # ECN threshold
    st.sampled_from([0.0, 0.3, 0.9]),  # background share
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),  # background fill
)

#: (start time, messages sent at once).
BURST = st.tuples(
    st.sampled_from([0.0, 0.0005, 0.001, 0.002, 0.01, 0.05]),
    st.integers(1, 6),
)

#: (time, stage index, share, fill): a background change mid-run.
BG_CHANGE = st.tuples(
    st.sampled_from([0.001, 0.003, 0.02]),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([0.0, 0.5, 1.0]),
)


class _Recorder:
    """Bus and trace stand-in: logs every call with hex-encoded floats."""

    def __init__(self):
        self.log = []

    def publish(self, topic, event):
        self.log.append((
            topic, event.kind, event.link, event.t.hex(),
            event.latency.hex(), event.stage, event.attempts, event.marked,
        ))

    def add(self, kind, span, start, end):
        self.log.append(("add", kind, span, start.hex(), end.hex()))

    def backoff(self, kind, span, start, end, rto):
        self.log.append((
            "backoff", kind, span, start.hex(), end.hex(), rto.hex(),
        ))


def run_chain_program(chain_cls, stages, propagation, ecn_penalty,
                      max_retries, bursts, changes):
    """Send ``bursts`` through a fresh chain; return what it observed."""
    sim = Simulator()
    queues = []
    for i, (rate, buffer, ecn, share, fill) in enumerate(stages):
        queue = FiniteQueue(sim, f"s{i}", rate, buffer, ecn_threshold=ecn)
        queue.set_background(share, fill)
        queues.append(queue)
    recorder = _Recorder()
    chain = chain_cls(
        sim,
        "a->b",
        queues,
        propagation=propagation,
        tcp=RetransmissionPolicy(
            min_rto=0.004, backoff=2.0, max_retries=max_retries
        ),
        ecn_penalty=ecn_penalty,
        bus=recorder,
    )
    outcomes = []

    def message(sim, index, start):
        yield sim.timeout(start)
        try:
            yield from chain.transfer(trace=recorder, span=f"m{index}")
        except NetworkOverflowError:
            outcomes.append((index, "failed", sim.now.hex()))
        else:
            outcomes.append((index, "delivered", sim.now.hex()))

    def change(sim, at, queue, share, fill):
        yield sim.timeout(at)
        queue.set_background(share, fill)

    index = 0
    for start, count in bursts:
        for _ in range(count):
            sim.process(message(sim, index, start))
            index += 1
    for at, stage, share, fill in changes:
        sim.process(change(sim, at, queues[stage % len(queues)], share, fill))
    sim.run()
    return {
        "outcomes": outcomes,
        "log": recorder.log,
        "stages": [
            (q.offered, q.delivered, q.dropped, q.marked, q.occupancy,
             q.peak_occupancy)
            for q in queues
        ],
        "chain": (chain.messages, chain.delivered, chain.failed,
                  chain.attempts, chain.drops),
        "now": sim.now.hex(),
        "timed_events": sim._seq,
    }


class TestQueueChainMatchesReference:
    @settings(max_examples=max_examples(150), deadline=None)
    @given(
        stages=st.lists(STAGE, min_size=1, max_size=4),
        propagation=st.sampled_from([0.0, 0.0002, 0.001]),
        ecn_penalty=st.sampled_from([0.0, 0.002]),
        max_retries=st.integers(0, 3),
        bursts=st.lists(BURST, min_size=1, max_size=5),
        changes=st.lists(BG_CHANGE, max_size=3),
    )
    def test_random_bursts_are_float_identical(
        self, stages, propagation, ecn_penalty, max_retries, bursts, changes
    ):
        args = (stages, propagation, ecn_penalty, max_retries, bursts,
                changes)
        assert run_chain_program(QueueChain, *args) == run_chain_program(
            ReferenceQueueChain, *args
        )

    def test_drop_then_marked_delivery(self):
        # Two ECN-marking stages; the second holds one slot, so a burst
        # of three drops two messages there after the first marked them.
        args = (
            [(1000.0, 4, 0.25, 0.0, 0.0), (1000.0, 1, 1.0, 0.0, 0.0)],
            0.0002, 0.002, 1, [(0.0, 3)], [],
        )
        observed = run_chain_program(QueueChain, *args)
        assert any(
            entry[0] == "net.dropped" and entry[5] == "s1" and entry[7]
            for entry in observed["log"]
        )
        assert observed == run_chain_program(ReferenceQueueChain, *args)
