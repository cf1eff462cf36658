"""Fixed-seed golden tests: the kernel rewrite changed nothing observable.

The PR-3 kernel and span-storage optimizations (slot/flattened events,
lazy heap discard, batched GC, columnar span store) are
behavior-preserving *by contract*: same seed, same request-level
output, byte for byte.  These tests pin the contract three ways:

1. against committed goldens generated by the pre-rewrite kernel
   (``tests/golden/``, see ``tests/golden/regenerate.py``);
2. across run repetition (same process, fresh simulator);
3. across observability configurations — tracing off, keep-all
   tracing, and the sampled live config with an SLO detector — which
   must all agree because the stack schedules no simulation events.

Also here: RNG hygiene audits asserting a full simulation never
consumes the global ``random`` / ``np.random`` streams (everything
draws from explicit, seeded ``Generator`` objects).
"""

import json
import os
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.datacenter import (
    DC_4HOST,
    DC_8HOST,
    _channel_specs,
    run_datacenter,
)
from tests._golden import (
    GOLDEN_DIR,
    GOLDEN_FIG2,
    GOLDEN_NET,
    attribution_text,
    requests_csv_text,
    run_golden_fig2,
    run_golden_fig9,
    run_golden_hybrid,
    run_golden_net,
    sketch_json_text,
)


def golden_text(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), newline="") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def fig2_run():
    return run_golden_fig2()


@pytest.fixture(scope="module")
def fig9_run():
    return run_golden_fig9()


class TestGoldenSnapshots:
    """Byte-identical output vs. the committed pre-rewrite goldens."""

    def test_fig2_requests_csv(self, fig2_run):
        assert requests_csv_text(fig2_run) == golden_text(
            "fig2_requests.csv"
        )

    def test_fig9_requests_csv(self, fig9_run):
        assert requests_csv_text(fig9_run) == golden_text(
            "fig9_requests.csv"
        )

    def test_fig9_percentile_sketch(self, fig9_run):
        assert sketch_json_text(fig9_run) == golden_text(
            "fig9_sketch.json"
        )

    def test_fig9_attribution_report(self, fig9_run):
        assert attribution_text(fig9_run) == golden_text(
            "fig9_attribution.txt"
        )


class TestRunRepetition:
    """Same seed, fresh simulator: byte-identical request table."""

    def test_fig2_run_twice(self, fig2_run):
        again = run_golden_fig2()
        assert requests_csv_text(again) == requests_csv_text(fig2_run)

    def test_different_seed_differs(self, fig2_run):
        other = replace(GOLDEN_FIG2, seed=GOLDEN_FIG2.seed + 1)
        from repro.experiments.runner import run_rubbos

        run = run_rubbos(other)
        assert requests_csv_text(run) != requests_csv_text(fig2_run)


class TestTracingNeutrality:
    """Tracing is observational: on or off is moot."""

    def test_tracing_on_off_identical(self, fig2_run):
        traced = run_golden_fig2(tracing=True)
        assert requests_csv_text(traced) == requests_csv_text(fig2_run)


class TestTelemetryNeutrality:
    """Live telemetry is passive: on/off agrees with the goldens.

    The streaming pipeline subscribes to bus topics and closes windows
    lazily inside completion callbacks — it schedules no events and
    consumes no RNG — so a telemetry-enabled run must reproduce the
    committed pre-telemetry goldens byte for byte.
    """

    @pytest.fixture(scope="class")
    def fig2_telemetry_run(self):
        from repro.obs import TelemetryConfig

        from tests._golden import GOLDEN_FIG2
        from repro.experiments.runner import run_rubbos

        return run_rubbos(GOLDEN_FIG2, tracing=TelemetryConfig(slo=0.5))

    def test_telemetry_matches_fig2_golden(self, fig2_telemetry_run):
        assert requests_csv_text(fig2_telemetry_run) == golden_text(
            "fig2_requests.csv"
        )

    def test_telemetry_matches_fig9_golden(self):
        from repro.obs import TelemetryConfig

        run = run_golden_fig9(tracing=TelemetryConfig(slo=0.5))
        assert requests_csv_text(run) == golden_text(
            "fig9_requests.csv"
        )

    def test_telemetry_outputs_are_deterministic(
        self, fig2_telemetry_run
    ):
        """Same seed: identical window series, retention, and alarms."""
        from repro.obs import TelemetryConfig

        from tests._golden import GOLDEN_FIG2
        from repro.experiments.runner import run_rubbos

        def snapshot(run):
            live = run.obs
            return json.dumps(
                {
                    "sketches": live.pipeline.snapshot(),
                    "series": live.pipeline.series(99.0),
                    "traces": {
                        "base": live.tracer.base_retained,
                        "promoted": live.tracer.promoted,
                        "stride": live.tracer.stride,
                    },
                    "violations": live.detector.violations,
                    "onsets": live.detector.onsets,
                },
                sort_keys=True,
            )

        again = run_rubbos(GOLDEN_FIG2, tracing=TelemetryConfig(slo=0.5))
        assert snapshot(again) == snapshot(fig2_telemetry_run)


class TestHybridNeutrality:
    """sample_fraction=1.0 degenerates to the plain kernel, byte for byte.

    With every user sampled there is no bulk population, so the fluid
    engine is never constructed: no coupling pushes, no fluid tick
    process, no extra RNG draws.  The committed pre-hybrid goldens must
    reproduce exactly — the hybrid machinery may not perturb non-hybrid
    physics even when explicitly requested.
    """

    def test_full_fraction_matches_fig2_golden(self):
        from repro.experiments.runner import run_rubbos
        from repro.sim.hybrid import HybridConfig

        run = run_rubbos(
            GOLDEN_FIG2, hybrid=HybridConfig(sample_fraction=1.0)
        )
        assert run.fluid is None
        assert requests_csv_text(run) == golden_text("fig2_requests.csv")

    def test_full_fraction_matches_fig9_golden(self):
        from repro.sim.hybrid import HybridConfig

        run = run_golden_fig9(hybrid=HybridConfig(sample_fraction=1.0))
        assert requests_csv_text(run) == golden_text("fig9_requests.csv")

    def test_hybrid_run_repeats_byte_identically(self):
        from repro.experiments.runner import run_rubbos
        from repro.sim.hybrid import HybridConfig

        scenario = replace(
            GOLDEN_FIG2, name="hybrid-repeat", users=400, duration=6.0
        )
        hybrid = HybridConfig(sample_fraction=0.25)
        first = run_rubbos(scenario, hybrid=hybrid)
        second = run_rubbos(scenario, hybrid=hybrid)
        assert requests_csv_text(second) == requests_csv_text(first)
        assert second.fluid is not None
        assert second.fluid.completed == first.fluid.completed
        assert second.fluid.state() == first.fluid.state()

    def test_hybrid_matches_committed_golden(self):
        # The fluid bulk's coupling (background load, attack-edge
        # re-steps) shapes every discrete request; the golden pins it.
        run = run_golden_hybrid()
        assert run.fluid is not None
        assert requests_csv_text(run) == golden_text("hybrid_requests.csv")


class TestNetworkNeutrality:
    """``network=None`` is byte-identical to pre-network runs, and the
    network-routed golden is itself deterministic.

    The tier keeps its fixed ``net_delay`` hop unless a scenario
    explicitly routes RPCs through the finite queue chains, so every
    committed pre-network golden must still reproduce exactly.  The
    network-enabled golden pins the chain serialization, drop, and
    link-RTO event ordering the same way.
    """

    @pytest.fixture(scope="class")
    def net_run(self):
        return run_golden_net()

    def test_default_scenarios_carry_no_network(self, fig2_run):
        assert GOLDEN_FIG2.network is None
        assert fig2_run.network is None
        assert fig2_run.net_attack is None
        for tier in fig2_run.app.tiers:
            assert tier.link_down is None
            assert tier.link_up is None

    def test_network_none_matches_committed_golden(self, fig2_run):
        # The strongest neutrality statement available: the golden was
        # regenerated before the network code paths existed, and a
        # current network=None run reproduces it byte for byte.
        assert requests_csv_text(fig2_run) == golden_text(
            "fig2_requests.csv"
        )

    def test_net_golden_matches_committed_snapshot(self, net_run):
        assert requests_csv_text(net_run) == golden_text(
            "net_requests.csv"
        )

    def test_net_run_repeats_byte_identically(self, net_run):
        again = run_golden_net()
        assert requests_csv_text(again) == requests_csv_text(net_run)

    def test_net_tracing_neutral(self, net_run):
        # Chain trace spans are observational: tracing a network run
        # changes nothing about its physics.
        traced = run_golden_net(tracing=True)
        assert requests_csv_text(traced) == requests_csv_text(net_run)

    def test_net_attack_wiring_present(self, net_run):
        assert GOLDEN_NET.network is not None
        assert net_run.network is not None
        assert net_run.net_attack is not None
        assert len(net_run.net_attack.bursts) > 0
        assert net_run.network.drops > 0  # the attack actually bites
        for tier in net_run.app.tiers:
            if tier.downstream is not None:
                assert tier.link_down is not None
                assert tier.link_up is not None


class TestShardedDeterminism:
    """The sharded parallel kernel is byte-identical to one simulator.

    The conservative safe-window protocol (DESIGN.md §12) promises
    that partitioning a multi-host scenario into worker processes
    changes *nothing observable*: every cross-host RPC frame carries
    the same delivery timestamp computed by the same link arithmetic,
    and the window exchange injects remote events in exactly the
    interleaving a single shared simulator would have produced.  Pinned
    three ways: the single-process reference against a committed
    golden, the 2-worker run against the reference byte for byte, and
    exact event-count equality (the sum of per-shard kernel dispatch
    counts must equal the single simulator's count — no event created,
    lost, or reordered by the partition).
    """

    @pytest.fixture(scope="class")
    def single_run(self):
        from tests._golden import run_golden_dc

        return run_golden_dc(shards=1)

    @pytest.fixture(scope="class")
    def sharded_run(self):
        from tests._golden import run_golden_dc

        return run_golden_dc(shards=2)

    def test_single_process_matches_committed_golden(self, single_run):
        assert requests_csv_text(single_run) == golden_text(
            "dc2_requests.csv"
        )

    def test_sharded_requests_byte_identical(
        self, single_run, sharded_run
    ):
        assert requests_csv_text(sharded_run) == requests_csv_text(
            single_run
        )

    def test_sharded_event_count_exact(self, single_run, sharded_run):
        assert single_run.event_count > 0
        assert sharded_run.event_count == single_run.event_count

    def test_sharded_latency_sketch_identical(
        self, single_run, sharded_run
    ):
        a, b = single_run.latency, sharded_run.latency
        assert b.count == a.count
        assert b.buckets == a.buckets
        assert b.total == a.total

    def test_sharded_message_counts_symmetric(self, sharded_run):
        sent = sum(r.sent for r in sharded_run.shard_results)
        received = sum(r.received for r in sharded_run.shard_results)
        assert sent == received > 0

    def test_adaptive_packed_counts_wire_bytes(self, sharded_run):
        assert sharded_run.frames_exchanged > 0
        assert sharded_run.wire_bytes > 0


class TestWeightedGroupDeterminism:
    """Event-weighted groupings are byte-identical to one simulator.

    dc-2host has only one possible split, so the weighted cuts are
    pinned on a shortened dc-4host: ``shards=2`` groups apache alone
    against tomcat and both mysql replicas, ``shards=3`` splits off the
    replica pair — both uneven in host count, both exactly the
    reference's request CSV, event count and merged latency sketch.
    """

    SCENARIO = replace(
        DC_4HOST, base=replace(DC_4HOST.base, duration=2.0)
    )

    @pytest.fixture(scope="class")
    def single_run(self):
        return run_datacenter(self.SCENARIO, shards=1)

    @pytest.fixture(scope="class", params=[2, 3], ids=["k2", "k3"])
    def grouped_run(self, request):
        return run_datacenter(self.SCENARIO, shards=request.param)

    def test_groups_are_weighted_not_equal_count(self, grouped_run):
        expected = {2: [[0], [1, 2, 3]], 3: [[0], [1], [2, 3]]}
        assert grouped_run.groups == expected[grouped_run.shards_used]

    def test_requests_byte_identical(self, single_run, grouped_run):
        text = requests_csv_text(single_run)
        assert text.count("\n") > 1
        assert requests_csv_text(grouped_run) == text

    def test_event_count_exact(self, single_run, grouped_run):
        assert single_run.event_count > 0
        assert grouped_run.event_count == single_run.event_count

    def test_latency_sketch_identical(self, single_run, grouped_run):
        a, b = single_run.latency, grouped_run.latency
        assert b.count == a.count
        assert b.buckets == a.buckets
        assert b.total == a.total


class TestHybridShardDeterminism:
    """dc-8host's per-host fluid bulk preserves byte-identity.

    Every shard worker carries a closed-loop million-user
    ``FluidEngine`` over its local tier slice (8M bulk users total).
    The engines are RNG-free and touch only shard-local state, so the
    grouped sharded run must reproduce the single-simulator reference
    byte for byte — including the coupling's effect on the discrete
    requests — and the per-host fluid aggregates must agree bit for
    bit.  Grouped at shards=2 — apache alone, tomcat with its six
    replicas — so the suite also exercises the mixed
    LocalChannel/FrameChannel partition on a replicated chain.
    """

    @pytest.fixture(scope="class")
    def dc8_single(self):
        from tests._golden import run_golden_dc8

        return run_golden_dc8(shards=1)

    @pytest.fixture(scope="class")
    def dc8_grouped(self):
        from tests._golden import run_golden_dc8

        return run_golden_dc8(shards=2)

    def test_dc8_grouping_mixes_local_and_frame_channels(
        self, dc8_grouped
    ):
        assert dc8_grouped.groups == [[0], list(range(1, 8))]
        group_of = {
            index: g
            for g, members in enumerate(dc8_grouped.groups)
            for index in members
        }
        crosses = [
            group_of[sender] != group_of[receiver]
            for _, sender, receiver, _, _ in _channel_specs(DC_8HOST)
        ]
        # Tomcat<->replica channels stay local; apache<->tomcat frames.
        assert any(crosses) and not all(crosses)

    def test_dc8_matches_committed_golden(self, dc8_single):
        assert requests_csv_text(dc8_single) == golden_text(
            "dc8_requests.csv"
        )

    def test_dc8_bulk_population_present(self, dc8_single):
        totals = dc8_single.fluid_totals
        assert totals is not None
        assert totals["bulk_users"] == 8_000_000
        assert totals["completed"] > 0

    def test_dc8_grouped_requests_byte_identical(
        self, dc8_single, dc8_grouped
    ):
        assert requests_csv_text(dc8_grouped) == requests_csv_text(
            dc8_single
        )

    def test_dc8_grouped_event_count_exact(self, dc8_single, dc8_grouped):
        assert dc8_single.event_count > 0
        assert dc8_grouped.event_count == dc8_single.event_count

    def test_dc8_fluid_aggregates_bit_exact(
        self, dc8_single, dc8_grouped
    ):
        a = dc8_single.fluid_totals
        b = dc8_grouped.fluid_totals
        assert b["bulk_users"] == a["bulk_users"]
        assert b["completed"] == a["completed"]
        assert b["dropped"] == a["dropped"]

    def test_dc8_per_host_fluid_reported(self, dc8_grouped):
        with_bulk = [
            r for r in dc8_grouped.shard_results if r.fluid is not None
        ]
        assert len(with_bulk) == 8
        for result in with_bulk:
            assert result.fluid["bulk_users"] == 1_000_000


class TestGlobalRngHygiene:
    """A full run must not consume the global RNG streams."""

    def test_simulation_leaves_global_rngs_untouched(self):
        from repro.experiments.runner import run_rubbos

        scenario = replace(
            GOLDEN_FIG2, name="rng-audit", users=50, duration=2.0, warmup=0.0
        )
        random.seed(1234)
        np.random.seed(1234)
        state_py = random.getstate()
        state_np = np.random.get_state()
        run_rubbos(scenario, tracing=True)
        assert random.getstate() == state_py
        after = np.random.get_state()
        assert after[0] == state_np[0]
        assert np.array_equal(after[1], state_np[1])
        assert after[2:] == state_np[2:]

    def test_kernel_has_no_global_rng_dependence(self):
        """Two identical runs interleaved with global-RNG churn agree."""
        from repro.experiments.runner import run_rubbos

        scenario = replace(
            GOLDEN_FIG2, name="rng-churn", users=50, duration=2.0, warmup=0.0
        )
        first = run_rubbos(scenario)
        random.seed(999)
        np.random.seed(999)
        [random.random() for _ in range(100)]
        np.random.random(100)
        second = run_rubbos(scenario)
        assert requests_csv_text(second) == requests_csv_text(first)
