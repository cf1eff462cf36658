"""Property and unit tests for the inter-tier network queue chain.

The finite-queue invariants (FIFO service order, exact message
conservation, bounded occupancy, drop monotonicity in offered load)
are checked with hypothesis over randomized arrival patterns; the
protocol behaviors (RTO retransmission, exhaustion, ECN marking,
background contention) with deterministic scenarios; the NIC
ring-saturation attack's tail amplification end to end.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.configs import NET_ATTACK, NET_BASELINE
from repro.experiments.runner import run_rubbos
from repro.net import (
    CrossHostLink,
    FiniteQueue,
    NetworkConfig,
    NetworkOverflowError,
    QueueChain,
)
from repro.ntier import RetransmissionPolicy, TierOverflowError
from repro.sim import Simulator
from repro.sim.sharded import (
    FLAG_FINAL,
    FrameChannel,
    FrameCodec,
    ShardRunner,
)


def drive(sim, chain, start, results, count=1):
    """Spawn ``count`` transfer processes entering the chain at ``start``."""

    def proc():
        if start > 0:
            yield start
        try:
            yield from chain.transfer()
        except NetworkOverflowError:
            results.append(("failed", sim.now))
        else:
            results.append(("ok", sim.now))

    for _ in range(count):
        sim.process(proc())


arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    min_size=1,
    max_size=60,
)


class TestFiniteQueueProperties:
    @given(arrivals=arrival_lists)
    @settings(max_examples=60, deadline=None)
    def test_departures_fifo_on_monotone_horizon(self, arrivals):
        # Admissions in time order reserve strictly increasing departure
        # times: per-stage FIFO is structural, not scheduled.
        sim = Simulator()
        q = FiniteQueue(sim, "q", rate=50.0, buffer=10_000)
        departures = []
        for t in sorted(arrivals):
            admitted = q.admit(t)
            assert admitted is not None
            departure, _ = admitted
            assert departure >= t + q.service_time
            departures.append(departure)
        assert departures == sorted(departures)
        assert len(set(departures)) == len(departures)

    @given(
        arrivals=arrival_lists,
        buffer=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_bounded_occupancy(self, arrivals, buffer):
        # offered == delivered + dropped + occupancy at every step, and
        # occupancy never exceeds the buffer or goes negative.
        sim = Simulator()
        q = FiniteQueue(sim, "q", rate=40.0, buffer=buffer)
        in_service = 0
        for i, t in enumerate(sorted(arrivals)):
            if q.admit(t) is not None:
                in_service += 1
            # Drain roughly every other arrival.
            if in_service and i % 2:
                q.depart()
                in_service -= 1
            assert 0 <= q.occupancy <= buffer
            assert q.offered == q.delivered + q.dropped + q.occupancy
        while in_service:
            q.depart()
            in_service -= 1
        assert q.occupancy == 0
        assert q.offered == q.delivered + q.dropped
        assert q.peak_occupancy <= buffer

    @given(
        smaller=st.integers(min_value=0, max_value=30),
        extra=st.integers(min_value=0, max_value=30),
        buffer=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_drops_monotone_in_offered_load(self, smaller, extra, buffer):
        # Offering strictly more messages in the same instant can never
        # reduce the number of drops.
        def drops_for(count):
            q = FiniteQueue(Simulator(), "q", rate=100.0, buffer=buffer)
            for _ in range(count):
                q.admit(0.0)
            return q.dropped

        assert drops_for(smaller + extra) >= drops_for(smaller)

    @given(
        share=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        fill=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_background_stretches_but_never_inverts_service(
        self, share, fill
    ):
        sim = Simulator()
        q = FiniteQueue(sim, "q", rate=100.0, buffer=10)
        q.set_background(share, fill)
        admitted = q.admit(0.0)
        if admitted is None:
            # Background fill alone can close the buffer entirely.
            assert q.bg_fill >= q.buffer
            return
        departure, _ = admitted
        # Contention stretches serialization, never reverses time, and
        # the cap keeps service finite even at share >= 1.
        assert departure >= q.service_time
        assert departure < float("inf")


class TestChainConservation:
    @given(
        starts=st.lists(
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_every_message_delivered_or_failed(self, starts):
        # End-to-end packet conservation through a 3-stage chain with a
        # deliberately tiny middle buffer and no retransmissions.
        sim = Simulator()
        stages = [
            FiniteQueue(sim, "tx", rate=500.0, buffer=64),
            FiniteQueue(sim, "mid", rate=300.0, buffer=2),
            FiniteQueue(sim, "rx", rate=500.0, buffer=64),
        ]
        chain = QueueChain(
            sim,
            "a->b",
            stages,
            tcp=RetransmissionPolicy(min_rto=0.01, max_retries=0),
        )
        results = []
        for t in starts:
            drive(sim, chain, t, results)
        sim.run()
        assert len(results) == len(starts)
        delivered = sum(1 for kind, _ in results if kind == "ok")
        failed = sum(1 for kind, _ in results if kind == "failed")
        assert chain.messages == len(starts)
        assert chain.delivered == delivered
        assert chain.failed == failed
        assert delivered + failed == len(starts)
        for stage in stages:
            assert stage.occupancy == 0
            assert stage.offered == stage.delivered + stage.dropped
            assert stage.peak_occupancy <= stage.buffer

    def test_burst_into_tiny_buffer_drops_then_retries(self):
        sim = Simulator()
        stages = [FiniteQueue(sim, "ring", rate=1000.0, buffer=4)]
        chain = QueueChain(
            sim,
            "a->b",
            stages,
            tcp=RetransmissionPolicy(min_rto=0.05, max_retries=4),
        )
        results = []
        drive(sim, chain, 0.0, results, count=12)
        sim.run()
        # Two retransmission waves: 8 of the 12 drop at t=0, all 8
        # retry at the same RTO instant so 4 drop again, and the last
        # wave lands after the doubled backoff.  Nothing is lost end to
        # end — the losses all convert into latency.
        assert chain.delivered == 12
        assert chain.drops == 8 + 4
        assert chain.failed == 0
        assert {kind for kind, _ in results} == {"ok"}
        retried_done = max(t for _, t in results)
        assert retried_done >= 0.05 + 0.10  # paid two backed-off RTOs


class TestProtocolBehaviors:
    def test_exhausted_retries_raise_network_overflow(self):
        sim = Simulator()
        ring = FiniteQueue(sim, "ring", rate=1000.0, buffer=8)
        ring.set_background(0.5, 1.0)  # attacker holds every descriptor
        chain = QueueChain(
            sim,
            "a->b",
            [ring],
            tcp=RetransmissionPolicy(min_rto=0.01, max_retries=2),
        )
        results = []
        drive(sim, chain, 0.0, results)
        sim.run()
        assert results == [("failed", pytest.approx(0.01 + 0.02))]
        assert chain.failed == 1
        assert chain.attempts == 3  # initial + 2 retransmissions

    def test_network_overflow_is_a_tier_overflow(self):
        # The client's TCP loop catches TierOverflowError; the network
        # failure mode must be a member of that family.
        assert issubclass(NetworkOverflowError, TierOverflowError)
        error = NetworkOverflowError("net:apache->tomcat")
        assert isinstance(error, TierOverflowError)

    def test_ecn_marks_above_threshold_and_drops_when_full(self):
        sim = Simulator()
        q = FiniteQueue(sim, "q", rate=100.0, buffer=4, ecn_threshold=0.5)
        first, first_marked = q.admit(0.0)
        assert not first_marked
        _, second_marked = q.admit(0.0)  # occupancy 2 == 0.5 * 4
        assert second_marked
        q.admit(0.0)
        q.admit(0.0)
        assert q.admit(0.0) is None  # full: still drop-tail
        assert q.marked == 3
        assert q.dropped == 1

    def test_marked_traversal_pays_ecn_penalty(self):
        sim = Simulator()
        stages = [
            FiniteQueue(sim, "q", rate=1000.0, buffer=4, ecn_threshold=0.5)
        ]
        chain = QueueChain(sim, "a->b", stages, ecn_penalty=0.5)
        results = []
        drive(sim, chain, 0.0, results, count=2)
        sim.run()
        # First message sits below the mark point, second crosses it
        # and pays the pacing penalty on top of serialization.
        times = sorted(t for _, t in results)
        assert times[0] == pytest.approx(0.001)
        assert times[1] == pytest.approx(0.002 + 0.5)
        assert stages[0].marked == 1

    def test_background_share_capped(self):
        sim = Simulator()
        q = FiniteQueue(sim, "q", rate=100.0, buffer=10)
        q.set_background(5.0, 0.0)
        assert q.bg_share < 1.0
        departure, _ = q.admit(0.0)
        assert departure < float("inf")

    def test_negative_background_rejected(self):
        q = FiniteQueue(Simulator(), "q", rate=100.0, buffer=10)
        with pytest.raises(ValueError):
            q.set_background(-0.1, 0.0)
        with pytest.raises(ValueError):
            q.set_background(0.0, -0.1)


class _Preloaded:
    """Test transport: hand back the staged frame at each round."""

    def __init__(self, frames):
        self._frames = list(frames)

    def send(self, frame):  # pragma: no cover - receiver-only shim
        raise AssertionError("receiver transport never sends")

    def recv(self):
        return self._frames.pop(0)


class TestShardBoundaryProperties:
    """The sharded kernel's contracts on the network layer (§12).

    The window loop advances each shard with ``run(until=h)`` at
    boundaries chosen by the topology, not by the traffic — so chain
    retransmission state (armed RTO timers, exhaustion instants) must
    be indifferent to where those boundaries land.  And cross-shard
    frames must stay ordered per link with a deterministic cross-link
    merge, whatever the interleaving of delivery timestamps.
    """

    @given(
        starts=st.lists(
            st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
            min_size=1,
            max_size=25,
        ),
        window=st.floats(
            min_value=0.005, max_value=0.25, allow_nan=False
        ),
        buffer=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_stepping_preserves_retransmission_outcomes(
        self, starts, window, buffer
    ):
        # Same burst into a tiny ring, once straight through and once
        # stepped in arbitrary safe-window increments: boundaries land
        # mid-RTO and on exhaustion instants, yet every delivery time,
        # failure time, drop and attempt count must match exactly.
        def outcomes(step):
            sim = Simulator()
            chain = QueueChain(
                sim,
                "a->b",
                [FiniteQueue(sim, "ring", rate=200.0, buffer=buffer)],
                tcp=RetransmissionPolicy(
                    min_rto=0.02, backoff=2.0, max_retries=2
                ),
            )
            results = []
            for t in starts:
                drive(sim, chain, t, results)
            if step is None:
                sim.run()
            else:
                horizon = 0.0
                while horizon < 1.0:
                    horizon += step
                    sim.run(until=horizon)
                sim.run()  # drain anything past the stepped horizon
            counters = (
                chain.delivered,
                chain.failed,
                chain.drops,
                chain.attempts,
            )
            return results, counters

        assert outcomes(None) == outcomes(window)

    @given(
        starts=st.lists(
            st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
        widths=st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=1,
            max_size=40,
        ),
        offcuts=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_adaptive_width_schedule_preserves_rto_exhaustion(
        self, starts, widths, offcuts
    ):
        # The adaptive protocol advances in *integer multiples* of the
        # base window occasionally capped at an off-grid promise bound
        # (DESIGN.md §12).  Replay one such irregular horizon schedule
        # against the straight run: armed RTO timers, exhaustion
        # instants, and retry counts must be indifferent to where the
        # widened boundaries land — including edges falling exactly on
        # an RTO expiry (min_rto is a multiple of the base window, so
        # retry timers land on grid edges).
        window = 0.01

        def outcomes(adaptive):
            sim = Simulator()
            chain = QueueChain(
                sim,
                "a->b",
                [FiniteQueue(sim, "ring", rate=200.0, buffer=2)],
                tcp=RetransmissionPolicy(
                    min_rto=0.02, backoff=2.0, max_retries=2
                ),
            )
            results = []
            for t in starts:
                drive(sim, chain, t, results)
            if adaptive:
                horizon = 0.0
                for k, cut in zip(widths, offcuts):
                    # A widened round of k base windows, sometimes
                    # cut short at an off-grid bound inside it.
                    horizon += k * window * (cut if cut > 0.2 else 1.0)
                    sim.run(until=horizon)
            sim.run()
            return results, (
                chain.delivered,
                chain.failed,
                chain.drops,
                chain.attempts,
            )

        assert outcomes(False) == outcomes(True)

    @given(
        sends=st.lists(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        share=st.floats(min_value=0.0, max_value=0.97, allow_nan=False),
        fill=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_cross_host_delivery_dominates_lookahead_under_background(
        self, sends, share, fill
    ):
        # The conservative bound the safe window is built on: whatever
        # background contention holds the stages, a message sent at t
        # delivers no earlier than t + lookahead (to the ULP — the
        # stage walk accumulates, the lookahead sums up front), and
        # time-ordered sends produce time-ordered deliveries.
        sim = Simulator()
        link = CrossHostLink(
            sim,
            "h1->h2",
            nic_rate=120000.0,
            link_latency=0.0005,
            link_rate=200000.0,
        )
        for stage in link.stages:
            stage.set_background(share, fill)
        previous = float("-inf")
        for t in sorted(sends):
            delivery = link.delivery_time(t)
            assert delivery >= t + link.lookahead - 1e-12
            assert delivery >= previous
            previous = delivery

    @given(
        times_x=st.lists(
            st.floats(
                min_value=0.10001, max_value=0.2, allow_nan=False
            ),
            max_size=12,
        ),
        times_y=st.lists(
            st.floats(
                min_value=0.10001, max_value=0.2, allow_nan=False
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_cross_link_merge_orders_by_time_rank_index(
        self, times_x, times_y
    ):
        # Two incoming links with arbitrary (possibly tied) delivery
        # stamps: dispatch follows (time, link rank, intra-frame idx),
        # so the merge is deterministic and per-link FIFO is stable.
        times_x, times_y = sorted(times_x), sorted(times_y)
        sim = Simulator()
        order = []
        x, y = FrameChannel(None), FrameChannel(None)
        x.bind(order.append)
        y.bind(order.append)

        def closing_frame(tag, times):
            # One frame that delivers everything and closes the link.
            messages = [(t, (tag, i)) for i, t in enumerate(times)]
            codec = FrameCodec()
            return [codec.encode(math.inf, 0.0, FLAG_FINAL, 0, messages)]

        runner = ShardRunner(
            sim,
            duration=0.2,
            window=0.1,
            outgoing=[],
            incoming=[
                (_Preloaded(closing_frame("x", times_x)), x),
                (_Preloaded(closing_frame("y", times_y)), y),
            ],
            reverse=[],
        )
        runner.run()
        staged = [
            (t, 0, i, ("x", i)) for i, t in enumerate(times_x)
        ] + [(t, 1, i, ("y", i)) for i, t in enumerate(times_y)]
        expected = [p for _, _, _, p in sorted(staged)]
        assert order == expected
        assert runner.received == len(times_x) + len(times_y)
        # Per-link relative order survives the merge (stability).
        assert [i for tag, i in order if tag == "x"] == list(
            range(len(times_x))
        )
        assert [i for tag, i in order if tag == "y"] == list(
            range(len(times_y))
        )


class TestNetworkConfigValidation:
    def test_defaults_valid(self):
        config = NetworkConfig()
        policy = config.policy()
        assert policy.min_rto == config.rto
        assert policy.max_retries == config.max_retries

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nic_rate": 0.0},
            {"qdisc_rate": -1.0},
            {"switch_rate": 0.0},
            {"nic_buffer": 0},
            {"qdisc_buffer": -3},
            {"switch_buffer": 0},
            {"ecn_threshold": 0.0},
            {"ecn_threshold": 1.5},
            {"rto": 0.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)


class TestNicAttackAmplification:
    """The NIC attack amplifies the tail through the queue chains.

    Against the network-routed baseline, the attack must at least
    double the client P99 and widen the P99/P50 dispersion by 1.5x —
    tail-specific damage, not a flat slowdown — and drop packets in
    the chains.  Quick: both scenarios at 1,000 users x 12 s; full
    (``pytest --perf``): ``NET_BASELINE`` / ``NET_ATTACK`` as
    registered.
    """

    P99_AMPLIFICATION_FLOOR = 2.0
    DISPERSION_FLOOR = 1.5

    @pytest.fixture(
        scope="class",
        params=["quick", pytest.param("full", marks=pytest.mark.perf)],
    )
    def runs(self, request):
        pair = (NET_BASELINE, NET_ATTACK)
        if request.param == "quick":
            pair = tuple(
                replace(s.with_users(1000), duration=12.0, warmup=3.0)
                for s in pair
            )
        return tuple(run_rubbos(s) for s in pair)

    @staticmethod
    def _quantiles(run):
        rts = [
            r.response_time for r in run.client_requests() if not r.failed
        ]
        return np.percentile(rts, [50.0, 99.0])

    def test_p99_and_dispersion_amplified(self, runs):
        (base_p50, base_p99), (atk_p50, atk_p99) = map(self._quantiles, runs)
        assert atk_p99 / base_p99 >= self.P99_AMPLIFICATION_FLOOR
        dispersion = (atk_p99 / atk_p50) / (base_p99 / base_p50)
        assert dispersion >= self.DISPERSION_FLOOR

    def test_attack_drops_packets_in_the_chains(self, runs):
        assert runs[1].network.drops > 0
