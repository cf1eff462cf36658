"""Scenario conformance matrix: shared invariants over every scenario.

Every scenario registered in ``repro.experiments.configs.SCENARIOS``
is run once (shrunk via ``with_users`` plus a short duration, fixed
seed) and held to the same invariants: request accounting conserves,
no occupancy goes negative or exceeds its bound, the run summarizes
with every field populated, and the scenario's ``stable_hash`` is
deterministic and collision-free across the registry.  A new scenario
family added to the registry is automatically tested here — that is
the point: the registry *is* the conformance surface.

The datacenter registry (``repro.experiments.datacenter.DATACENTERS``)
gets the same treatment: every multi-host scenario, shrunk, runs once
through the single-process reference (``shards=1``) and must conserve
requests per tier and tile the chain with its shards.
"""

import pickle
from dataclasses import replace

import pytest

from repro.experiments.configs import SCENARIOS
from repro.experiments.datacenter import DATACENTERS, run_datacenter
from repro.experiments.parallel import stable_hash
from repro.experiments.runner import run_rubbos, split_attack_program
from repro.experiments.summary import summarize_rubbos

#: Shrunk-but-representative run used for every scenario: small enough
#: for CI, long enough for at least one attack cycle where configured.
USERS = 400
DURATION = 5.0
WARMUP = 1.0


def shrink(scenario):
    return replace(
        scenario.with_users(USERS), duration=DURATION, warmup=WARMUP
    )


@pytest.fixture(scope="module")
def matrix():
    """name -> (shrunk scenario, finished run, summary), each run once."""
    out = {}
    for name, scenario in SCENARIOS.items():
        small = shrink(scenario)
        run = run_rubbos(small)
        out[name] = (small, run, summarize_rubbos(run))
    return out


scenario_names = pytest.mark.parametrize("name", sorted(SCENARIOS))


@scenario_names
class TestRequestAccounting:
    def test_requests_complete_and_conserve(self, matrix, name):
        scenario, run, _ = matrix[name]
        completed, failed = run.app.completed, run.app.failed
        assert len(completed) > 0
        # Closed loop: no user can hold more than one request, and
        # every finished request is filed exactly once.  (rids are
        # per-user counters and the logs rebuild fresh objects, so a
        # request is its rid with its first-attempt time.)
        assert len(completed) + len(failed) <= run.app.front.arrivals
        finished = completed + failed
        keys = {(r.rid, r.t_first_attempt) for r in finished}
        assert len(keys) == len(finished)

    def test_completed_requests_are_well_formed(self, matrix, name):
        scenario, run, _ = matrix[name]
        for request in run.app.completed:
            assert request.t_done is not None
            assert 0.0 <= request.t_first_attempt <= request.t_done
            assert request.t_done <= scenario.duration + 1e-9
            assert request.response_time >= 0.0
            assert request.attempts >= 1
            assert not request.failed
        for request in run.app.failed:
            assert request.failed

    def test_tier_counters_conserve(self, matrix, name):
        _, run, _ = matrix[name]
        for tier in run.app.tiers:
            # In-flight work at the horizon accounts for the remainder.
            in_flight = tier.arrivals - tier.completions - tier.drops
            assert in_flight >= 0
            assert tier.occupancy >= 0
            capacity = tier.admission_capacity
            if capacity is not None:
                assert tier.occupancy <= capacity


@scenario_names
class TestOccupancyBounds:
    def test_queue_series_never_negative(self, matrix, name):
        _, run, _ = matrix[name]
        for tier_name, series in run.queue_sampler.series.items():
            values = [v for _, v in series]
            assert values, f"empty queue series for {tier_name}"
            assert min(values) >= 0

    def test_utilization_within_unit_interval(self, matrix, name):
        _, run, _ = matrix[name]
        for tier_name, monitor in run.util_monitors.items():
            values = [v for _, v in monitor.series]
            assert values, f"empty util series for {tier_name}"
            assert min(values) >= 0.0
            assert max(values) <= 1.0 + 1e-9

    def test_network_stage_conservation(self, matrix, name):
        scenario, run, _ = matrix[name]
        if scenario.network is None:
            assert run.network is None
            return
        net = run.network
        assert net is not None
        stages = net.stages()
        assert stages
        for stage in stages:
            assert stage.occupancy >= 0
            assert stage.peak_occupancy <= stage.buffer
            assert stage.offered == (
                stage.delivered + stage.dropped + stage.occupancy
            )
        for chain in net.links.values():
            in_transit = chain.messages - chain.delivered - chain.failed
            assert in_transit >= 0
            assert chain.attempts >= chain.messages


@scenario_names
class TestSummaryContract:
    def test_summary_fields_populated(self, matrix, name):
        scenario, run, summary = matrix[name]
        tiers = tuple(tier.name for tier in run.app.tiers)
        assert summary.tiers == tiers
        assert len(summary.requests) > 0
        assert set(summary.util_series) == set(tiers)
        assert set(summary.mean_demands) == set(tiers)
        assert summary.scenario == scenario
        if scenario.attack is not None:
            # The AttackEffect is a memory-side measurement; a pure
            # NIC attack summarizes without one but still carries its
            # burst log and attribution counts.
            memory_part, _ = split_attack_program(scenario.attack.program)
            if memory_part is not None:
                assert summary.effect is not None
            assert summary.attribution is not None
            assert len(summary.bursts) > 0
        else:
            assert summary.bursts == ()

    def test_summary_accessors_work(self, matrix, name):
        _, _, summary = matrix[name]
        rts = summary.client_response_times()
        assert rts.size > 0
        assert float(rts.min()) >= 0.0
        curves = summary.percentile_curves()
        assert "client" in curves
        assert summary.weighted_throughput() > 0.0

    def test_summary_pickles(self, matrix, name):
        _, _, summary = matrix[name]
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.tiers == summary.tiers
        assert len(clone.requests) == len(summary.requests)


class TestStableHashing:
    def test_hash_round_trips(self):
        for scenario in SCENARIOS.values():
            # A field-for-field reconstruction hashes identically:
            # the hash keys on content, not object identity.
            assert stable_hash(scenario) == stable_hash(replace(scenario))
            assert stable_hash(shrink(scenario)) == stable_hash(
                shrink(scenario)
            )

    def test_hashes_distinct_across_registry(self):
        hashes = {name: stable_hash(s) for name, s in SCENARIOS.items()}
        assert len(set(hashes.values())) == len(hashes)

    def test_network_field_changes_hash(self):
        # The network config participates in the cache key, so a cached
        # plain run can never be served for a network-routed cell.
        for name, scenario in SCENARIOS.items():
            if scenario.network is None:
                continue
            stripped = replace(scenario, network=None)
            assert stable_hash(scenario) != stable_hash(stripped)

    def test_seed_changes_hash(self):
        for scenario in SCENARIOS.values():
            reseeded = replace(scenario, seed=scenario.seed + 1)
            assert stable_hash(scenario) != stable_hash(reseeded)


@scenario_names
def test_registry_names_match_scenarios(name):
    # The registry key is the lookup surface the CLI exposes; keep it
    # consistent with the scenario's own name unless an alias is the
    # point (ec2 -> amazon-ec2).
    scenario = SCENARIOS[name]
    assert scenario.name in (name, "amazon-ec2")


# -- datacenter scenarios -----------------------------------------------------


def shrink_datacenter(scenario):
    base = scenario.base
    users = min(base.users, USERS)
    bulk = scenario.bulk
    if bulk is not None:
        # ``with_users`` co-scales the tier capacities; the per-host
        # bulk must shrink by the same ratio or it swamps them.
        bulk = replace(
            bulk,
            users_per_host=round(bulk.users_per_host * users / base.users),
        )
    return replace(
        scenario,
        base=replace(base.with_users(users), duration=DURATION, warmup=WARMUP),
        bulk=bulk,
    )


@pytest.fixture(scope="module")
def dc_matrix():
    """name -> (shrunk datacenter scenario, its shards=1 run)."""
    out = {}
    for name, scenario in DATACENTERS.items():
        small = shrink_datacenter(scenario)
        out[name] = (small, run_datacenter(small, shards=1))
    return out


datacenter_names = pytest.mark.parametrize("name", sorted(DATACENTERS))


@datacenter_names
class TestDatacenterConformance:
    def test_client_requests_conserve(self, dc_matrix, name):
        scenario, run = dc_matrix[name]
        assert len(run.completed) > 0
        front_arrivals = run.tier_stat(scenario.chain()[0])[0]
        assert len(run.completed) + len(run.failed) <= front_arrivals

    def test_tier_counters_conserve(self, dc_matrix, name):
        scenario, run = dc_matrix[name]
        for tier in scenario.chain():
            arrivals, completions, drops = run.tier_stat(tier)
            assert arrivals > 0
            assert completions <= arrivals
            assert drops <= arrivals

    def test_shards_tile_the_chain(self, dc_matrix, name):
        scenario, run = dc_matrix[name]
        assert [r.index for r in run.shard_results] == list(
            range(len(scenario.shards))
        )
        tiles = []
        for result in run.shard_results:
            assert tuple(result.tier_stats) == result.tiers
            # Consecutive identical slices are replicas of one tile.
            if not tiles or tiles[-1] != result.tiers:
                tiles.append(result.tiers)
        assert sum(tiles, ()) == scenario.chain()


@datacenter_names
def test_datacenter_registry_names_match(name):
    assert DATACENTERS[name].name == name
