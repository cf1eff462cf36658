"""The paper's figures: every committed table, and the claims it backs.

Each test renders its tables through :data:`repro.cli.FIGURES` on a
serial, uncached sweep executor, fails with a diff when a table differs
from its committed copy under ``benchmarks/results/``, and asserts the
claims EXPERIMENTS.md cites on the same result.  All but the analytic
Fig 3 tables run full-scale simulations, so they are marked ``perf``::

    PYTHONPATH=src python -m pytest --perf tests/test_figures.py

The committed tables were generated on CPython 3.11 with
``PYTHONHASHSEED=0``.  After a change that moves a table on purpose,
regenerate it with ``python -m repro <name> --out benchmarks/results``.
"""

import difflib
from pathlib import Path

import pytest

from repro.cli import FIGURES
from repro.experiments.parallel import SweepExecutor
from tests import _claims as claims

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

perf = pytest.mark.perf


def render(key: str):
    """Compute ``key``'s table, check it against its golden, return the
    result."""
    figure = FIGURES[key]
    result = figure.run(SweepExecutor.inline())
    text = figure.render(result) + "\n"
    golden = (RESULTS / f"{key}.txt").read_text()
    if text != golden:
        diff = "".join(
            difflib.unified_diff(
                golden.splitlines(keepends=True),
                text.splitlines(keepends=True),
                f"committed {key}.txt",
                f"rendered {key}.txt",
            )
        )
        pytest.fail(f"{key} differs from its committed table:\n{diff}")
    return result


def test_every_committed_table_has_a_registry_entry():
    # A table outside the registry is checked by nothing.
    assert set(FIGURES) == {path.stem for path in RESULTS.glob("*.txt")}


# -- Fig 2: tail amplification per tier (EC2 + private) ----------------------


@perf
def test_fig2_tail_amplification():
    # Client p95 > 1 s; the tail amplifies from MySQL through
    # Tomcat/Apache to the clients.
    for result in render("fig2"):
        assert claims.amplified(result, 95), (
            f"{result.environment}: no amplification"
        )
        client_p95 = claims.at(result.curves["client"], 95)
        assert client_p95 > 1.0, (
            f"{result.environment}: client p95 {client_p95:.3f}s <= 1s"
        )
        # Monotone back-to-front tail at p95: mysql <= tomcat/apache.
        mysql = claims.at(result.curves["mysql"], 95)
        assert claims.at(result.curves["tomcat"], 95) >= 0.9 * mysql
        assert claims.at(result.curves["apache"], 95) >= 0.9 * mysql


# -- Fig 3: per-VM memory bandwidth (analytic, tier-1) -----------------------


def test_fig3_bandwidth_degradation():
    result = render("fig3")
    assert claims.finding1_single_attacker_insufficient(result)
    assert claims.finding2_decreases_with_vms(result, "same-package")
    assert claims.finding2_decreases_with_vms(result, "random-package")
    assert claims.finding3_lock_beats_saturation(result)
    # Random package halves the damage (two buses instead of one).
    for attack in ("none", "saturate", "lock"):
        assert claims.bandwidth(result, "random-package", attack, 4) > (
            claims.bandwidth(result, "same-package", attack, 4)
        )


def test_fig3_on_ec2_host():
    assert claims.finding3_lock_beats_saturation(render("fig3_ec2"))


def test_fig3_across_hypervisors():
    # Section III: KVM, Xen, VMware and Hyper-V agree.
    for name, result in render("fig3_hypervisors").items():
        assert claims.finding1_single_attacker_insufficient(result), name
        assert claims.finding2_decreases_with_vms(result, "same-package"), name
        assert claims.finding3_lock_beats_saturation(result), name


# -- Figs 6, 7, 9, 10, 11 ----------------------------------------------------


@perf
def test_fig6_cross_tier_queue_overflow():
    result = render("fig6")
    # 6(b): overflow propagates through every tier of the attack model.
    assert claims.overflow_propagates(result)
    # 6(a): the tandem model confines queueing to the bottleneck.
    assert claims.tandem_confined_to_back(result)
    # The closed form predicts each tier's cap is reached.
    for tier, q in zip(result.scenario.tier_names,
                       result.scenario.queue_sizes):
        assert max(result.predicted[tier]) >= 0.99 * q


@perf
def test_fig7_tail_amplification_models():
    result = render("fig7")
    assert claims.tandem_curves_overlap(result)
    assert claims.amplification_without_drops(result)
    assert claims.finite_queues_worst_for_clients(result)
    # 7(c): the finite-queue client tail crosses the 1 s TCP RTO...
    assert claims.at(result.cases["attack-finite"]["client"], 99) > 1.0
    # ...while the no-drop models stay well below it.
    assert claims.at(result.cases["tandem"]["client"], 99) < 0.5
    infinite_front = result.cases["attack-infinite-front"]["client"]
    assert claims.at(infinite_front, 99) < 0.5


@perf
def test_fig9_damage_snapshot():
    result = render("fig9")
    # (a) bursts every ~2 s for ~500 ms each.
    assert 3 <= len(result.bursts) <= 6
    for burst in result.bursts:
        assert burst.length <= 0.6
    # (b) transient CPU saturations, one per burst (within slack).
    assert claims.transient_saturations(result) >= 3
    # (c) queue propagation beyond MySQL into upstream tiers.
    assert claims.queues_propagate(result)
    # (d) clients perceive > 1 s response times in the window.
    assert result.client_peak() > 1.0
    # Every >1 s request overlaps an attack burst or millibottleneck
    # episode: attribution coverage must be 100%.
    attribution = result.summary.attribution
    assert attribution is not None and attribution.slow_requests > 0
    assert attribution.coverage == 1.0, (
        f"only {attribution.attributed}/{attribution.slow_requests} "
        "slow requests attributed to a burst/episode"
    )


@perf
def test_fig10_autoscaling_bypass():
    result = render("fig10")
    assert result.bypassed_autoscaling
    views = result.views
    # 1-minute view: flat and moderate — nothing above the trigger.
    assert views["cloudwatch_1min"].max() < result.policy.threshold
    # 50 ms view: transient saturations are plainly visible.
    assert views["ultrafine_50ms"].max() >= 0.99
    # The finer you sample, the more saturation you see.
    assert (
        views["ultrafine_50ms"].fraction_above(0.95)
        > views["fine_1s"].fraction_above(0.95)
        >= views["cloudwatch_1min"].fraction_above(0.95)
    )


@perf
def test_fig11_llc_signatures():
    result = render("fig11")
    # (a) periodic LLC misses under intermittent bus saturation.
    assert claims.saturation_leaves_signature(result)
    # (b) no observable pattern under the memory-lock attack.
    assert claims.lock_is_invisible(result)
    # Both programs still damage the clients (the point of Fig 11).
    for program, summary in result.summaries.items():
        assert summary.front_drops > 0, (
            f"{program} attack caused no damage"
        )


# -- Section IV: model validation and the MemCA-BE controller ----------------


@perf
def test_model_validation():
    result = render("model_validation")
    # The DES matches the conservation-based model closely.
    assert claims.conservative_within(result, tolerance=0.5)
    for row in result.rows:
        measured = row.measured
        assert measured.bursts_observed >= 20
        # Bottleneck fill time: both model variants agree with the DES.
        assert measured.fill_time_back is not None
        predicted = row.conservative.fill_up[-1]
        assert abs(measured.fill_time_back - predicted) < max(
            0.01, 0.6 * predicted
        )
        # The paper's Eqs. 5-6 never predict slower fill than observed
        # (they sum per-tier arrival streams).
        assert row.paper.build_up <= row.conservative.build_up
        # Millibottleneck stays sub-second: the stealth envelope.
        assert measured.millibottleneck is not None
        assert measured.millibottleneck < 1.0


@perf
def test_controller_convergence():
    # From a deliberately weak start, the commander escalates until the
    # p95 damage goal is met, with no victim-side knowledge.
    result = render("controller")
    assert result.converged, "commander never reached the damage goal"
    assert claims.epochs_to_goal(result) is not None
    # The ladder was actually climbed: intensity first.
    actions = " ".join(e.action for e in result.history)
    assert "escalate(intensity" in actions
    assert "escalate(length" in actions or "escalate(interval" in actions
    # Final effect meets the paper's damage bar.
    assert result.effect.percentiles[95] > 1.0
    # FE-side stealth estimate stays sub-second.
    assert result.effect.mean_burst_length < 1.0


# -- Ablations of MemCA's design choices (DESIGN.md §4) ----------------------


@perf
def test_ablation_burst_length():
    result = render("ablation_length")
    fractions = [p.fraction_above_rto for p in result.points]
    utils = [p.mean_mysql_util for p in result.points]
    # Longer bursts: monotonically more damage and more average load.
    assert fractions == sorted(fractions)
    assert utils == sorted(utils)
    # Sub-fill-time bursts are harmless (L=50ms < build-up).
    assert fractions[0] < 0.01


@perf
def test_ablation_interval():
    result = render("ablation_interval")
    # rho = P_D / I: damage dilutes as the interval grows (I >= 2s;
    # at I=1s retransmission collisions distort the closed loop).
    diluting = [p for p in result.points if p.label != "I=1s"]
    fractions = [p.fraction_above_rto for p in diluting]
    assert fractions == sorted(fractions, reverse=True)


@perf
def test_ablation_degradation():
    by_label = {p.label: p for p in render("ablation_degradation").points}
    # Condition 2: with lambda=300, C_off=600, damage needs D < 0.5.
    assert by_label["D=0.1"].fraction_above_rto > 0.01
    assert by_label["D=0.6"].fraction_above_rto < 0.005
    assert by_label["D=0.6"].drops < by_label["D=0.1"].drops / 10


@perf
def test_ablation_condition1():
    ordered, inverted = render("ablation_condition1").points
    # Damage persists either way (front cap governs drops)...
    assert ordered.drops > 0 and inverted.drops > 0
    # ...but only the ordered case is analysable (Condition 1).
    assert ordered.predicted_rho and float(ordered.predicted_rho) > 0
    assert float(inverted.predicted_rho) == 0.0


@perf
def test_ablation_attack_programs():
    by_label = {
        p.label.split()[0]: p for p in render("ablation_programs").points
    }
    lock = by_label["lock"]
    saturate = by_label["saturate"]
    cleanse = by_label["cleanse"]
    # Scheduling-based contention (lock) dominates; bandwidth contention
    # (saturation, 4 VMs) is second; storage-based contention (LLC
    # cleansing) is the gentlest — the prior-work taxonomy's ordering.
    assert lock.fraction_above_rto > saturate.fraction_above_rto
    assert saturate.fraction_above_rto > cleanse.fraction_above_rto
    assert lock.client_p95 > 1.0
    assert cleanse.client_p95 < 0.2


@perf
def test_ablation_target_tier():
    by_label = {p.label: p for p in render("ablation_target").points}
    mysql = by_label["target=mysql"]
    tomcat = by_label["target=tomcat"]
    apache = by_label["target=apache"]
    # The bottleneck tier is the most damaging co-location target.
    assert mysql.fraction_above_rto > tomcat.fraction_above_rto
    assert tomcat.fraction_above_rto > apache.fraction_above_rto
    assert mysql.client_p95 > 1.0
    # Apache has so much headroom that Condition 2 fails there.
    assert apache.client_p95 < 0.2


@perf
def test_ablation_service_distribution():
    # The amplification mechanism is insensitive to the service law:
    # all four distributions produce the > 1 s p95 at equal means.
    for point in render("ablation_distribution").points:
        assert point.client_p95 > 1.0, point.label
        assert point.fraction_above_rto > 0.03, point.label


@perf
def test_ablation_rpc_vs_tandem():
    rpc, tandem = render("ablation_rpc").points
    # The amplification mechanism: no thread coupling, no client damage.
    assert tandem.drops == 0
    assert rpc.drops > 0
    assert rpc.client_p99 > 5 * tandem.client_p99


@perf
def test_ablation_switch_buffer():
    result = render("ablation_switch_buffer")
    fractions = [p.fraction_above_rto for p in result.points]
    # Deeper fabric buffers monotonically absorb the descriptor-hold
    # burst; the shallow end drop-tails it into RTO stalls.
    assert fractions == sorted(fractions, reverse=True)
    assert fractions[0] > 0.01
    assert fractions[1] < fractions[0] / 5
    # The deep end digests the whole burst: no drops, clean tail.
    assert result.points[-1].drops == 0
    assert fractions[-1] == 0.0


@perf
def test_ablation_ecn_threshold():
    result = render("ablation_ecn")
    by_label = {p.label: p for p in result.points}
    drop_tail = by_label["drop-tail"]
    low, mid = by_label["ecn@0.25"], by_label["ecn@0.5"]
    high = by_label["ecn@0.95"]
    # Admission is descriptor-driven: no threshold changes the drops.
    assert all(p.drops == 0 for p in result.points)
    # Thresholds at/below the 0.9 burst fill mark every ON-window
    # traversal — same marking, same pacing tax, regardless of where
    # below the fill the threshold sits.
    assert low.client_p95 == mid.client_p95
    assert low.client_p95 > drop_tail.client_p95
    # A threshold above the burst fill (0.95 > 0.9) never fires.
    assert abs(high.client_p95 - drop_tail.client_p95) < 1e-3


@perf
def test_ablation_rto_schedule():
    result = render("ablation_rto")
    fractions = [p.fraction_above_rto for p in result.points]
    p99s = [p.client_p99 for p in result.points]
    drops = [p.drops for p in result.points]
    # Tail damage grows monotonically along the schedule ordering:
    # in-burst retries without backoff, in-burst with backoff, the
    # RFC 6298 floor, a 3 s floor.
    assert fractions == sorted(fractions)
    assert p99s == sorted(p99s)
    assert drops == sorted(drops)
    # The 1 s floor is the amplification lever: an order of magnitude
    # over the sub-second schedules at p99.
    assert p99s[2] > 10 * p99s[0]


@perf
def test_ablation_dual_tier():
    single, dual_full, split = render("ablation_dual_tier").points
    # Two full-intensity attackers on different tiers: strictly more
    # damage than one (two millibottlenecks per interval, and the
    # staggered bursts catch TCP retries for multi-RTO tails).
    assert dual_full.fraction_above_rto > single.fraction_above_rto
    assert dual_full.client_p99 > single.client_p99
    # But *splitting* intensity across tiers collapses the attack:
    # Condition 2 is a per-host threshold, not a budget.
    assert split.fraction_above_rto < 0.01
    assert split.client_p95 < 0.2


# -- Defenses (extensions) ----------------------------------------------------


@perf
def test_defense_breaks_the_attack():
    result = render("defense")
    assert result.migrations, "defense never triggered"
    first = result.migrations[0].time
    # Before migration: the familiar > 1 s tail.
    assert claims.p95_between(result, result.scenario.warmup, first) > 0.5
    # After migration: back to healthy baseline.
    assert claims.p95_between(
        result, first + 10.0, result.scenario.duration
    ) < 0.1


@perf
def test_defense_cat_and_mouse():
    result = render("defense_cat_and_mouse")
    # The adversary re-co-locates and forces repeated migrations.
    assert len(result.migrations) >= 2
    assert result.recolocations
    # Damage recurs after each re-co-location...
    worst_after_recolocation = max(
        claims.p95_between(result, t, t + 15.0)
        for t in result.recolocations[:-1]
    ) if len(result.recolocations) > 1 else claims.p95_between(
        result, result.recolocations[0], result.recolocations[0] + 15.0
    )
    assert worst_after_recolocation > 0.3
    # ...and every migration restores the tail within its window.
    for migration in result.migrations:
        try:
            recovered = claims.p95_between(
                result, migration.time + 2.0, migration.time + 12.0
            )
        except ValueError:
            continue  # migration too close to the end of the run
        assert recovered < 0.6


@perf
def test_dial_load_balancing():
    result = render("dial")
    baseline = result.cases["no-attack"]
    static = result.cases["static"]
    dial = result.cases["dial"]
    # Replication alone already blunts the attack relative to the
    # single-instance deployment (p95 well under the 1 s RTO)...
    assert static.client_p95 < 1.0
    # ...but the static tail is still an order of magnitude above the
    # healthy baseline.
    assert static.client_p95 > 5 * baseline.client_p95
    # DIAL drains the attacked replica and restores a near-baseline tail.
    assert claims.dial_protects(result)
    assert dial.client_p95 < 3 * baseline.client_p95
    assert dial.attacked_share < 0.2
    # The weight floor keeps probing the suspect replica.
    assert min(dial.final_weights) >= 0.05 - 1e-9


# -- Substrate, positioning, threat model, robustness ------------------------


@perf
def test_capacity_baseline_matches_mva():
    result = render("capacity")
    # Throughput within 15% of MVA at every population.
    assert claims.capacity_within(result, 0.15)
    # Utilization tracks too (MVA is exact for the closed network).
    for point in result.points:
        assert abs(
            point.measured_mysql_util - point.predicted_mysql_util
        ) < 0.08
    # The paper's 3500-user operating point sits below the knee — the
    # system is *unsaturated*, which is what makes MemCA interesting.
    assert result.knee > 3500


@perf
def test_baseline_positioning():
    result = render("baselines")
    quiet = result.row("none")
    flood = result.row("flood")
    pulsating = result.row("pulsating")
    memca = result.row("memca")
    # Quiet system: healthy and unalarmed.
    assert not quiet.damaging and quiet.stealthy
    # Flooding: devastating but loud on both the utilization and
    # traffic axes.
    assert flood.damaging
    assert flood.autoscaling_triggered
    assert flood.rate_anomaly_detected
    # Pulsating bursts: damage without sustained saturation (bypasses
    # auto-scaling) but the bursts are visible in the request stream.
    assert pulsating.damaging
    assert not pulsating.autoscaling_triggered
    assert pulsating.rate_anomaly_detected
    # MemCA: the only campaign that is damaging AND fully stealthy.
    assert memca.damaging and memca.stealthy
    winners = [r.campaign for r in result.rows
               if r.damaging and r.stealthy]
    assert winners == ["memca"]


@perf
def test_netcompare_cross_resource():
    result = render("netcompare")
    # Each full-power attack trips its own resource's sampler...
    assert result.row("mem").cpu_alarm
    assert result.row("nic").nic_alarm
    # ...while the half-intensity combined attack clears both samplers
    # and still more than doubles the tail.
    assert not result.row("dual").sampler_visible
    assert result.amplification("dual") > 2.0


@perf
def test_placement_campaigns():
    study = render("placement")
    small = study.row(10, "random")
    mid = study.row(20, "random")
    large = study.row(40, "random")
    # High success within budget on moderate zones (paper: 0.6-0.89).
    assert small.success_rate >= 0.6
    assert mid.success_rate >= 0.6
    # Bigger zones cost more launches on average.
    assert large.mean_vms > small.mean_vms
    # Cost stays in the cited dollars range.
    for row in (small, mid, large):
        assert row.mean_cost_usd < 5.30


@perf
def test_monitoring_overhead_dilemma():
    result = render("overhead")
    by_interval = {p.interval: p for p in result.points}
    # Coarse monitoring is cheap but never sees the bursts.
    assert by_interval[60.0].within_budget
    assert not by_interval[60.0].sees_the_attack
    assert not by_interval[1.0].sees_the_attack
    # Ultra-fine sees everything but busts the 1% budget.
    assert by_interval[0.01].sees_the_attack
    assert not by_interval[0.01].within_budget
    # The per-VM sweet spot exists (targeted defense is affordable)...
    spots = claims.sweet_spots(result)
    assert spots and all(p.interval < 1.0 for p in spots)
    # ...but vanishes at provider fleet scale (the paper's argument).
    assert all(claims.fleet_overhead(p) >= 0.01 for p in spots)


@perf
def test_replication_across_seeds():
    replications = render("replication")
    # Damage holds at every seed...
    assert claims.all_above(replications["client_p95_s"], 0.9)
    # ...while the median stays fast...
    assert claims.all_below(replications["client_p50_ms"], 50.0)
    # ...and average utilization never nears the 85% trigger.
    assert claims.all_below(replications["mysql_avg_util"], 0.85)
    # The damaged fraction is stable (not a one-seed fluke).
    assert claims.cv(replications["fraction_above_rto"]) < 0.5
