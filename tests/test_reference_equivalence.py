"""The run-time kernel sleep, PS server and queue chain against references.

``tests/_reference_timeout.py``, ``tests/_reference_psserver.py`` and
``tests/_reference_queues.py`` keep the former implementations: the
``Timeout`` event a process slept on, the PS server that walked its job
table three times per completion, and the chain whose traversals ran in
a nested generator (sleeping on that ``Timeout``).  Hypothesis drives
random programs on a reference and on the run-time code, each on its
own simulator, and asserts that everything observable is equal, floats
by ``float.hex``: resume, completion and delivery times and their
order, drops and marks, integrators, counters, and the number of timed
events scheduled (``Simulator._seq``), which is what the pinned event
counts of ``tests/test_determinism.py`` measure.

The in-place continuations (``Simulator.elapse`` for a sleep,
``Simulator.consume`` for a pool grant) are checked the same way
against the yielding programs, with the runs cut into random
``run(until=t)`` windows and events injected between them, as the
sharded kernel injects cross-shard deliveries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FiniteQueue, NetworkOverflowError, QueueChain
from repro.ntier import RetransmissionPolicy
from repro.sim import Interrupt, ProcessorSharingServer, Resource, Simulator
from repro.sim.sharded import EventCounter
from tests._reference_psserver import (
    ProcessorSharingServer as ReferencePSServer,
)
from tests._reference_queues import ReferenceQueueChain
from tests._reference_timeout import Timeout
from tests.conftest import max_examples

# -- process sleeps ---------------------------------------------------------

#: Zero, tied and spilled (past the default 8.192 s wheel) delays.
SLEEP = st.sampled_from([0.0, 0.0, 0.001, 0.25, 0.25, 1.0, 10.0, 20.0])

#: One step of a process: sleep, wait on / fire a shared event, hold
#: the shared pool for a sleep, spawn or join a process, or interrupt a
#: process that is mid-sleep.
PROC_OP = st.one_of(
    st.tuples(st.just("sleep"), SLEEP),
    st.tuples(st.just("sleep"), st.floats(0.0, 30.0)),
    st.tuples(st.just("pool"), SLEEP),
    st.tuples(st.just("wait"), st.integers(0, 3)),
    st.tuples(st.just("fire"), st.integers(0, 3)),
    st.tuples(st.just("spawn"), st.integers(0, 7)),
    st.tuples(st.just("join"), st.integers(0, 31)),
    st.tuples(st.just("interrupt"), st.integers(0, 31)),
)

#: Processes started at t=0; spawns start programs from the same list.
PROC_PROGRAMS = st.lists(
    st.lists(PROC_OP, max_size=8), min_size=1, max_size=5
)

#: Spawns past this many processes are skipped, so programs terminate.
MAX_PROCESSES = 24

#: ``run(until=t)`` window ends, each followed by an injected bare
#: timer ``delta`` later that logs itself and fires shared event ``k``.
SPLITS = st.lists(
    st.tuples(
        st.one_of(SLEEP, st.floats(0.0, 30.0)),
        st.sampled_from([0.0, 0.001, 0.25]),
        st.integers(0, 3),
    ),
    max_size=4,
)


def wake_sleep(sim, delay):
    return (yield delay)


def event_sleep(sim, delay):
    return (yield Timeout(sim, delay))


def elapse_sleep(sim, delay):
    if not sim.elapse(delay):
        yield delay


def yield_grant(sim, token):
    yield token


def consume_grant(sim, token):
    if not sim.consume(token):
        yield token


def run_process_program(
    sleep, programs, grant=yield_grant, capacity=1, splits=()
):
    """Play ``programs`` with ``sleep(sim, delay)`` as the sleep and
    ``grant(sim, token)`` as the pool-grant wait (generators driven by
    ``yield from``), over the ``run(until=t)`` windows of ``splits``."""
    sim = Simulator()
    hooks = EventCounter()
    sim.attach_hooks(hooks)
    events = [sim.event() for _ in range(4)]
    pool = Resource(sim, capacity)
    procs = []
    #: Ids of processes asleep and not yet interrupted.
    asleep = set()
    trace = []

    def body(pid, ops):
        for op, arg in ops:
            value = None
            try:
                if op == "sleep":
                    asleep.add(pid)
                    try:
                        value = yield from sleep(sim, arg)
                    finally:
                        asleep.discard(pid)
                elif op == "pool":
                    token = pool.request()
                    try:
                        yield from grant(sim, token)
                        value = ("held", sim.now.hex())
                        asleep.add(pid)
                        try:
                            yield from sleep(sim, arg)
                        finally:
                            asleep.discard(pid)
                    finally:
                        if token in pool.users:
                            pool.release(token)
                        else:
                            pool.cancel(token)
                elif op == "wait":
                    value = yield events[arg]
                elif op == "join":
                    if arg % len(procs) == pid:
                        continue
                    value = yield procs[arg % len(procs)]
                elif op == "fire":
                    if not events[arg].triggered:
                        events[arg].succeed(f"e{arg}@{sim.now.hex()}")
                elif op == "spawn":
                    if len(procs) < MAX_PROCESSES:
                        start(programs[arg % len(programs)])
                else:
                    target = arg % len(procs)
                    if target in asleep:
                        asleep.discard(target)
                        procs[target].interrupt(f"i{pid}")
            except Interrupt as interrupt:
                value = ("interrupt", interrupt.cause)
            trace.append((sim.now.hex(), pid, op, value))
        return pid

    def start(ops):
        procs.append(sim.process(body(len(procs), ops)))

    def inject(k):
        trace.append((sim.now.hex(), -1, "inject", k))
        if not events[k].triggered:
            events[k].succeed(f"i{k}@{sim.now.hex()}")

    for ops in programs:
        start(ops)
    for until, delta, k in sorted(splits):
        sim.run(until=until)
        sim.defer_at(until + delta, lambda k=k: inject(k))
    sim.run()
    return {
        "trace": trace,
        "values": [proc._value for proc in procs],
        "now": sim.now.hex(),
        "timed_events": sim._seq,
        "events": hooks.count,
    }


class TestSleepMatchesReference:
    @settings(max_examples=max_examples(200), deadline=None)
    @given(programs=PROC_PROGRAMS)
    def test_random_programs_are_float_identical(self, programs):
        assert run_process_program(
            wake_sleep, programs
        ) == run_process_program(event_sleep, programs)

    def test_interrupt_mid_sleep(self):
        # Process 1 interrupts process 0 in the middle of its 10 s
        # sleep, then both sleep to tied and spilled times.
        programs = [
            [("sleep", 10.0), ("sleep", 0.25), ("sleep", 20.0)],
            [("sleep", 1.0), ("interrupt", 0), ("sleep", 0.25)],
        ]
        observed = run_process_program(wake_sleep, programs)
        assert (1.0.hex(), 0, "sleep", ("interrupt", "i1")) in observed[
            "trace"
        ]
        assert observed == run_process_program(event_sleep, programs)


class TestInPlaceMatchesYielding:
    """``elapse`` and ``consume`` leave the run as the yields would."""

    @settings(max_examples=max_examples(300), deadline=None)
    @given(
        programs=PROC_PROGRAMS,
        capacity=st.integers(1, 2),
        splits=SPLITS,
    )
    def test_random_programs_are_float_identical(
        self, programs, capacity, splits
    ):
        assert run_process_program(
            elapse_sleep, programs, consume_grant, capacity, splits
        ) == run_process_program(
            wake_sleep, programs, yield_grant, capacity, splits
        )

    def test_tied_wake_dispatches_first(self):
        # Process 1's wake is queued at 0.25 first; process 0 reaches
        # 0.25 by a second sleep, which must not overtake it.
        programs = [
            [("sleep", 0.125), ("sleep", 0.125), ("fire", 0)],
            [("sleep", 0.25), ("fire", 0)],
        ]
        observed = run_process_program(elapse_sleep, programs)
        assert [entry[1] for entry in observed["trace"]] == [0, 1, 1, 0, 0]
        assert observed == run_process_program(wake_sleep, programs)

    def test_window_end_and_injection_stop_a_chain(self):
        # The sleeper would run on to 1.0 in place; the window ends at
        # 0.5 and an injected timer at 0.75 comes between.
        programs = [[("sleep", 0.25), ("sleep", 0.75)]]
        splits = [(0.5, 0.25, 0)]
        observed = run_process_program(
            elapse_sleep, programs, splits=splits
        )
        assert [entry[2] for entry in observed["trace"]] == [
            "sleep", "inject", "sleep"
        ]
        assert observed == run_process_program(
            wake_sleep, programs, splits=splits
        )

    def test_sole_grant_and_lone_sleep_run_in_place(self):
        sim = Simulator()
        hooks = EventCounter()
        sim.attach_hooks(hooks)
        pool = Resource(sim, 1)
        taken = []

        def holder():
            token = pool.request()
            taken.append(sim.consume(token))
            taken.append(sim.elapse(1.0))
            pool.release(token)
            yield 0.0

        sim.process(holder())
        sim.run()
        assert taken == [True, True]
        assert sim.now == 1.0
        # The start, the grant, the in-place sleep, the final wake and
        # the exit: what the yields would have dispatched, two of them
        # timed.
        assert (hooks.count, sim._seq) == (5, 2)

    def test_event_with_another_waiter_is_not_consumed(self):
        sim = Simulator()
        event = sim.event()
        event.callbacks.append(lambda ev: None)
        event.succeed()
        assert not sim.consume(event)
        assert list(sim._imm) == [event]


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
        yield start
        try:
            yield from chain.transfer(trace=recorder, span=f"m{index}")
        except NetworkOverflowError:
            outcomes.append((index, "failed", sim.now.hex()))
        else:
            outcomes.append((index, "delivered", sim.now.hex()))

    def change(sim, at, queue, share, fill):
        yield at
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
