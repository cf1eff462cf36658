"""Command-line interface: regenerate any paper figure from a shell.

``python -m repro list`` shows the available experiments;
``python -m repro fig2`` (etc.) runs one and prints its rows/series;
``python -m repro all`` runs the full evaluation;
``python -m repro trace fig9`` runs a scenario with the span tracer on,
dumps JSONL spans + a Chrome trace_event file, and prints the
root-cause attribution report (the programmatic Fig 9);
``python -m repro sweep fig2 --workers 4`` regenerates a figure through
the parallel sweep engine with content-addressed run caching;
``python -m repro monitor fig9`` runs a scenario under the live
telemetry pipeline, printing streaming per-window tail quantiles,
adaptive-tracer retention, and SLO violations as the run progresses;
``python -m repro run private-cloud --users 1000000 --hybrid`` runs one
scenario end to end (``--users`` co-scales capacities via
``with_users``), optionally in hybrid fluid/DES mode where only
``--sample-fraction`` of the population is simulated discretely.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import Callable, Dict

from .experiments import (
    compare_attack_programs,
    run_overhead_study,
    run_dial,
    dual_tier_attack,
    run_placement_study,
    run_baseline_comparison,
    run_capacity_validation,
    condition1_ablation,
    rpc_vs_tandem,
    run_controller,
    run_defense,
    run_fig2_both,
    run_fig3,
    run_fig6,
    run_fig7,
    run_fig9,
    run_fig10,
    run_fig11,
    run_net_comparison,
    run_validation,
    sweep_burst_length,
    sweep_degradation,
    sweep_interval,
    sweep_service_distribution,
    sweep_target_tier,
)

__all__ = ["main", "EXPERIMENTS"]


def _fig2() -> str:
    ec2, private = run_fig2_both()
    return ec2.render() + "\n\n" + private.render()


def _ablation() -> str:
    parts = [
        sweep_burst_length().render(),
        sweep_interval().render(),
        sweep_degradation().render(),
        condition1_ablation().render(),
        rpc_vs_tandem().render(),
        compare_attack_programs().render(),
        sweep_target_tier().render(),
        sweep_service_distribution().render(),
        dual_tier_attack().render(),
    ]
    return "\n\n".join(parts)


def _defense() -> str:
    plain = run_defense()
    chased = run_defense(recolocate_after=25.0)
    return (
        plain.render()
        + "\n\n(with adversary re-co-location after 25 s)\n"
        + chased.render()
    )


#: name -> (description, runner returning printable text).
EXPERIMENTS: Dict[str, tuple] = {
    "fig2": (
        "tail amplification per tier (EC2 + private cloud)",
        _fig2,
    ),
    "fig3": (
        "memory bandwidth degradation under the two attacks",
        lambda: run_fig3().render(),
    ),
    "fig6": (
        "cross-tier queue overflow vs tandem queue",
        lambda: run_fig6().render(),
    ),
    "fig7": (
        "percentile RT under the three queueing models",
        lambda: run_fig7().render(),
    ),
    "fig9": (
        "8-second fine-grained damage snapshot",
        lambda: run_fig9().render(),
    ),
    "fig10": (
        "stealthiness vs monitoring granularity / auto-scaling",
        lambda: run_fig10().render(),
    ),
    "fig11": (
        "LLC-miss signatures of the two attack programs",
        lambda: run_fig11().render(),
    ),
    "validation": (
        "Eqs. 2-10 closed-form model vs DES measurements",
        lambda: run_validation().render(),
    ),
    "controller": (
        "MemCA-BE feedback control convergence",
        lambda: run_controller().render(),
    ),
    "ablation": (
        "sweeps: L, I, D, Condition 1, RPC vs tandem, programs, targets",
        _ablation,
    ),
    "defense": (
        "millibottleneck-triggered migration defense (extension)",
        _defense,
    ),
    "capacity": (
        "baseline capacity: DES vs Mean Value Analysis",
        lambda: run_capacity_validation().render(),
    ),
    "baselines": (
        "MemCA vs flooding vs pulsating HTTP attacks",
        lambda: run_baseline_comparison().render(),
    ),
    "placement": (
        "co-residency campaigns (the threat-model precondition)",
        lambda: run_placement_study().render(),
    ),
    "dial": (
        "DIAL-style interference-aware load balancing (extension)",
        lambda: run_dial().render(),
    ),
    "overhead": (
        "the monitoring dilemma: agent cost vs attack visibility",
        lambda: run_overhead_study().render(),
    ),
    "netcompare": (
        "memory vs NIC vs combined cross-resource attack",
        lambda: run_net_comparison().render(),
    ),
}


def _sweep_experiments() -> Dict[str, Callable]:
    """Experiment name -> ``fn(executor, quick) -> printable text``.

    Every entry here routes its simulations through the given
    :class:`~repro.experiments.parallel.SweepExecutor`, so workers and
    the run cache apply.  ``quick`` shrinks durations/grids for CI
    smoke runs (a quick run is a *different* cache universe — the
    shrunk scenarios hash differently).
    """
    from .experiments.configs import PRIVATE_CLOUD

    def fig2(executor, quick):
        ec2, private = run_fig2_both(
            duration=10.0 if quick else None, executor=executor
        )
        return ec2.render() + "\n\n" + private.render()

    def ablation(executor, quick):
        duration = 25.0 if quick else 45.0
        parts = [
            sweep_burst_length(executor=executor).render(),
            sweep_interval(executor=executor).render(),
            sweep_degradation(executor=executor).render(),
            condition1_ablation(executor=executor).render(),
            rpc_vs_tandem(executor=executor).render(),
            compare_attack_programs(
                duration=duration, executor=executor
            ).render(),
            sweep_target_tier(duration=duration, executor=executor).render(),
            sweep_service_distribution(
                duration=duration, executor=executor
            ).render(),
            dual_tier_attack(duration=duration, executor=executor).render(),
        ]
        return "\n\n".join(parts)

    def baselines(executor, quick):
        scenario = (
            replace(PRIVATE_CLOUD, duration=30.0) if quick else None
        )
        return run_baseline_comparison(
            scenario, executor=executor
        ).render()

    def netcompare(executor, quick):
        from .experiments.configs import NET_BASELINE

        scenario = (
            replace(NET_BASELINE, duration=30.0) if quick else None
        )
        return run_net_comparison(scenario, executor=executor).render()

    return {
        "fig2": fig2,
        "fig3": lambda ex, quick: run_fig3(
            max_vms=3 if quick else 6, executor=ex
        ).render(),
        "fig6": lambda ex, quick: run_fig6(executor=ex).render(),
        "fig7": lambda ex, quick: run_fig7(executor=ex).render(),
        "fig9": lambda ex, quick: run_fig9(
            duration=30.0 if quick else None, executor=ex
        ).render(),
        "fig11": lambda ex, quick: run_fig11(
            duration=30.0 if quick else None, executor=ex
        ).render(),
        "ablation": ablation,
        "capacity": lambda ex, quick: run_capacity_validation(
            duration=15.0 if quick else 40.0, executor=ex
        ).render(),
        "baselines": baselines,
        "placement": lambda ex, quick: run_placement_study(
            trials=2 if quick else 5, executor=ex
        ).render(),
        "defense": lambda ex, quick: run_defense(executor=ex).render(),
        "netcompare": netcompare,
    }


def _append_sweep_record(path: str, record: Dict) -> None:
    """Merge one sweep-run record into a ``{"runs": [...]}`` JSON file."""
    data: Dict = {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = {}
    if not isinstance(data, dict):
        data = {}
    data.setdefault("runs", []).append(record)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _run_sweep(args) -> int:
    """The ``sweep`` subcommand: executor-routed figure regeneration."""
    from .experiments.parallel import RunCache, SweepExecutor

    sweeps = _sweep_experiments()
    if args.scenario is None or args.scenario not in sweeps:
        known = ", ".join(sorted(sweeps))
        print(
            f"sweep needs an experiment name (one of: {known})",
            file=sys.stderr,
        )
        return 2
    cache = None if args.no_cache else RunCache(args.cache_dir)
    executor = SweepExecutor(max_workers=args.workers, cache=cache)
    started = time.time()
    print(sweeps[args.scenario](executor, args.quick))
    total = time.time() - started
    stats = executor.stats
    print(
        f"[sweep {args.scenario}: {stats.cells} cells, "
        f"{stats.simulated} simulated, {stats.cached} cached, "
        f"workers={executor.max_workers}, "
        f"cache={'off' if cache is None else args.cache_dir}, "
        f"{total:.1f}s]"
    )
    if args.json:
        _append_sweep_record(
            args.json,
            {
                "experiment": args.scenario,
                "quick": bool(args.quick),
                "workers": executor.max_workers,
                "cpu_count": os.cpu_count(),
                "cache": None if cache is None else args.cache_dir,
                "cells": stats.cells,
                "simulated": stats.simulated,
                "cached": stats.cached,
                "sweep_wall_seconds": round(stats.wall_seconds, 3),
                "total_seconds": round(total, 3),
            },
        )
    if args.expect_cached and stats.simulated:
        print(
            f"--expect-cached: {stats.simulated} of {stats.cells} cells "
            "were re-simulated instead of served from the cache",
            file=sys.stderr,
        )
        return 1
    return 0


#: Scenario names accepted by ``python -m repro trace <scenario>``.
def _trace_scenarios() -> Dict[str, object]:
    from .experiments.configs import PRIVATE_CLOUD, SCENARIOS

    scenarios: Dict[str, object] = dict(SCENARIOS)
    # Figure-name aliases for the scenarios the figures are built on.
    scenarios.setdefault("fig9", PRIVATE_CLOUD)
    scenarios.setdefault("fig2", PRIVATE_CLOUD)
    return scenarios


def _print_kernel_profile(kernel, duration: float) -> None:
    """Render the KernelProfiler wall-time-per-sim-second breakdown.

    One row per sim-time bin with the mean and worst wall cost of a
    simulated second inside it, plus a bar scaled to the worst bin —
    makes kernel hot spots (attack bursts, retransmission storms)
    visible without ad-hoc profiling scripts.
    """
    series = kernel.wall_time_per_sim_second()
    if not len(series):
        print("profile: no kernel checkpoints recorded (run too short)")
        return
    # ~24 rows regardless of scenario duration, at >= 0.5 s granularity.
    interval = max(0.5, duration / 24)
    mean = series.resample(interval, agg="mean")
    peak = series.resample(interval, agg="max")
    top = max(peak.values) if len(peak) else 0.0
    print(
        f"\nkernel profile: wall ms per sim-second "
        f"({interval:.1f} s bins, bar = share of worst bin)"
    )
    print(f"{'sim time':>14}  {'mean':>8}  {'peak':>8}")
    for (t, m), (_, p) in zip(mean, peak):
        bar = "#" * int(round(28 * (p / top))) if top > 0 else ""
        print(
            f"{t - interval:7.1f}-{t:<6.1f}  {m * 1e3:8.2f}  "
            f"{p * 1e3:8.2f}  {bar}"
        )
    print(
        f"{'total':>14}  {kernel.summary().get('wall_per_sim_second', 0.0) * 1e3:8.2f}"
    )


def _run_trace(args) -> int:
    """The ``trace`` subcommand: traced run + exports + attribution."""
    from .analysis.attribution import attribute_run
    from .analysis.export import write_chrome_trace, write_spans_jsonl
    from .experiments.runner import run_rubbos
    from .obs import TelemetryConfig

    scenarios = _trace_scenarios()
    if args.scenario is None or args.scenario not in scenarios:
        known = ", ".join(sorted(scenarios))
        print(
            f"trace needs a scenario name (one of: {known})",
            file=sys.stderr,
        )
        return 2
    if args.sample_every < 1:
        print(
            f"--sample-every must be >= 1, got {args.sample_every}",
            file=sys.stderr,
        )
        return 2
    scenario = scenarios[args.scenario]
    overrides = {}
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.users is not None:
        overrides["users"] = args.users
    if overrides:
        scenario = replace(scenario, **overrides)

    print(
        f"tracing scenario {args.scenario!r} "
        f"({scenario.users} users, {scenario.duration:.0f}s)..."
    )
    started = time.time()
    tracing = TelemetryConfig(
        window=None,
        base_sample_every=args.sample_every,
        trace_budget_per_window=None,
    )
    run = run_rubbos(scenario, tracing=tracing)
    finished = run.app.completed + run.app.failed

    os.makedirs(args.out, exist_ok=True)
    spans_path = os.path.join(args.out, f"{args.scenario}-spans.jsonl")
    chrome_path = os.path.join(args.out, f"{args.scenario}-trace.json")
    n_traces = write_spans_jsonl(spans_path, finished)
    n_events = write_chrome_trace(chrome_path, finished)
    print(f"wrote {n_traces} span trees to {spans_path}")
    print(f"wrote {n_events} trace_event slices to {chrome_path}")

    report = attribute_run(run, threshold=args.threshold)
    print()
    print(report.render())

    assert run.obs is not None
    kernel = run.obs.kernel.summary()
    print(
        f"\nkernel: {kernel['events_dispatched']} events, "
        f"{kernel['processes_started']} processes, "
        f"peak heap {kernel['peak_heap_depth']}, "
        f"{kernel.get('wall_per_sim_second', 0.0) * 1e3:.1f} ms wall "
        f"per sim-second"
    )
    if args.profile:
        _print_kernel_profile(run.obs.kernel, scenario.duration)
    snapshot = run.obs.metrics.snapshot()
    rt = snapshot.get("response_time")
    if rt and rt.get("count"):
        print(
            f"response time: count={rt['count']} "
            f"mean={rt['mean']:.3f}s p95={rt['p95']:.3f}s "
            f"p99={rt['p99']:.3f}s"
        )
    print(f"[trace {args.scenario} done in {time.time() - started:.1f}s]")
    return 0


def _hybrid_from_args(args):
    """Build a HybridConfig from --hybrid/--sample-fraction/--fluid-tick."""
    if not getattr(args, "hybrid", False):
        return None
    from .experiments.configs import HybridConfig

    return HybridConfig(
        sample_fraction=args.sample_fraction,
        fluid_tick=args.fluid_tick,
    )


def _parse_shards(value):
    """argparse type for ``--shards``: a positive int or ``auto``."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        )


def _resolve_shards(args, scenario) -> int:
    """Resolve ``--shards`` for a datacenter scenario.

    ``auto`` picks ``min(hosts, cpu cores)`` — every worker gets a
    core when the box has enough, and workers are merged into grouped
    shards rather than oversubscribing when it does not.  Unset
    defaults to one shard per host (the maximally parallel layout).
    """
    if args.shards == "auto":
        return max(1, min(len(scenario.shards), os.cpu_count() or 1))
    if args.shards is not None:
        return args.shards
    return len(scenario.shards)


def _datacenter_scenario(args, name):
    """Resolve a datacenter scenario with --duration/--users applied."""
    from .experiments.datacenter import DATACENTERS

    scenario = DATACENTERS[name]
    base = scenario.base
    if args.users is not None:
        base = base.with_users(args.users)
    if args.duration is not None:
        base = replace(base, duration=args.duration)
    if base is not scenario.base:
        scenario = replace(scenario, base=base)
    return scenario


def _run_datacenter(args, name) -> int:
    """``run`` on a multi-host scenario: the sharded parallel kernel.

    ``--shards 1`` runs all hosts side by side in one simulator (the
    byte-identical reference mode); ``--shards N`` (default: one per
    host) partitions the hosts into worker processes synchronized by
    the conservative safe-window protocol (DESIGN.md §12).
    """
    import numpy as np

    from .experiments.datacenter import run_datacenter

    scenario = _datacenter_scenario(args, name)
    shards = _resolve_shards(args, scenario)
    print(
        f"running datacenter scenario {name!r} "
        f"({len(scenario.shards)} hosts, {scenario.base.users} users, "
        f"{scenario.base.duration:.0f}s, shards={shards})..."
    )
    started = time.time()
    run = run_datacenter(scenario, shards=shards)
    wall = time.time() - started
    print(_groups_line(run))
    for result in run.shard_results:
        tiers = ",".join(result.tiers)
        print(
            f"  shard {result.index} {result.host}[{tiers}]: "
            f"{result.windows} windows, "
            f"{result.sent} sent / {result.received} received"
        )
    requests = run.client_requests()
    print(f"wall time: {wall:.1f}s "
          f"({scenario.base.duration / wall:.1f}x realtime)")
    print(
        f"kernel: {run.event_count} events across {shards} shard(s)"
    )
    if shards > 1:
        print(
            f"transport: {run.frames_exchanged} frames, "
            f"{run.wire_bytes} wire bytes"
        )
    fluid = run.fluid_totals
    if fluid is not None:
        print(
            f"fluid bulk: {fluid['bulk_users']:.0f} users across hosts, "
            f"{fluid['completed']:.0f} completed, "
            f"{fluid['dropped']:.0f} dropped"
        )
    print(f"requests: {len(requests)} completed post-warmup, "
          f"{len(run.failed)} failed")
    rts = np.array(
        [r.response_time for r in requests if r.response_time is not None]
    )
    if rts.size:
        print(
            "client RT: "
            + "  ".join(
                f"p{q:g}={np.percentile(rts, q) * 1e3:.1f}ms"
                for q in (50.0, 99.0, 99.9)
            )
        )
    print(f"[run {name} done in {wall:.1f}s]")
    return 0


def _group_label(scenario, members) -> str:
    """``host:tiers`` of each shard in one worker group."""
    return " ".join(
        f"{scenario.shards[i].host}:{','.join(scenario.shards[i].tiers)}"
        for i in members
    )


def _groups_line(run) -> str:
    """The worker groups a datacenter run used and its base window."""
    groups = " | ".join(
        f"[{_group_label(run.scenario, members)}]" for members in run.groups
    )
    return f"groups: {groups}; window={run.window * 1e3:.2f}ms"


def _monitor_datacenter(args, name) -> int:
    """``monitor`` on a multi-host scenario: per-group window progress.

    Subscribes to the ``shard.window`` bus topic the sharded runner
    publishes at every progress stride and prints one row per
    completed exchange-round stride with a column per worker group —
    the live view of the conservative-window protocol advancing.
    """
    from .experiments.datacenter import run_datacenter, shard_groups
    from .obs.bus import EventBus

    scenario = _datacenter_scenario(args, name)
    shards = _resolve_shards(args, scenario)
    print(
        f"monitoring datacenter scenario {name!r} "
        f"({len(scenario.shards)} hosts, {scenario.base.users} users, "
        f"{scenario.base.duration:.0f}s, shards={shards})..."
    )
    if shards == 1:
        print(
            "note: --shards 1 runs one simulator with no window "
            "boundaries; per-group progress rows only appear for "
            "shards > 1"
        )
    # One column per worker group, keyed by its first shard (the index
    # its ShardWindow reports carry).
    groups = shard_groups(scenario, shards)
    columns = [_group_label(scenario, members) for members in groups]
    width = max(26, max(len(c) for c in columns) + 2)
    print(
        f"{'sim time':>9}  {'window':>7}  "
        + "  ".join(c.rjust(width) for c in columns)
    )
    latest: Dict[int, object] = {}
    printed = [0]

    def show(window) -> None:
        latest[window.shard] = window
        if len(latest) < len(groups):
            return
        common = min(w.index for w in latest.values())
        if common <= printed[0]:
            return
        printed[0] = common
        cells = []
        for members in groups:
            w = latest[members[0]]
            cells.append(
                f"ev={w.events} tx={w.sent} rx={w.received}".rjust(width)
            )
        print(
            f"{min(w.now for w in latest.values()):9.2f}  "
            f"{common:7d}  " + "  ".join(cells)
        )

    bus = EventBus()
    bus.subscribe("shard.window", show)
    started = time.time()
    run = run_datacenter(scenario, shards=shards, bus=bus)
    wall = time.time() - started
    print("\n" + _groups_line(run))
    requests = run.client_requests()
    print(
        f"cumulative: {run.event_count} events, "
        f"{len(requests)} completed requests, "
        f"{len(run.failed)} failed"
    )
    sketch = run.latency
    if sketch.count:
        print(
            "latency sketch: "
            + "  ".join(
                f"p{q:g}={sketch.quantile(q) * 1e3:.1f}ms"
                for q in (50.0, 99.0)
            )
        )
    print(f"[monitor {name} done in {wall:.1f}s]")
    return 0


def _run_run(args) -> int:
    """The ``run`` subcommand: one scenario end to end, full or hybrid.

    ``--users`` rescales the population through
    :meth:`RubbosScenario.with_users`, which co-scales tier capacities
    (and keeps attack intensity untouched — it is a dimensionless
    per-host degradation), so 1000 and 1 000 000 users sit at the same
    operating point.  ``--hybrid`` switches to the fluid/DES engine:
    only ``--sample-fraction`` of the users run discretely; the rest
    advance as mean-field fluid state coupled back as background load.
    """
    import numpy as np

    from .experiments.datacenter import DATACENTERS
    from .experiments.runner import run_rubbos
    from .experiments.summary import summarize_rubbos

    scenarios = _trace_scenarios()
    name = args.scenario if args.scenario is not None else "private-cloud"
    if name in DATACENTERS:
        return _run_datacenter(args, name)
    if name not in scenarios:
        known = ", ".join(sorted(scenarios) + sorted(DATACENTERS))
        print(
            f"run needs a scenario name (one of: {known})",
            file=sys.stderr,
        )
        return 2
    scenario = scenarios[name]
    if args.users is not None:
        scenario = scenario.with_users(args.users)
    if args.duration is not None:
        scenario = replace(scenario, duration=args.duration)
    hybrid = _hybrid_from_args(args)
    mode = "full DES"
    if hybrid is not None:
        split = hybrid.split(scenario.users)
        mode = (
            f"hybrid: {split.sampled} sampled users "
            f"(weight {split.weight:.1f}) + {split.bulk} fluid"
        )
    print(
        f"running scenario {name!r} ({scenario.users} users, "
        f"{scenario.duration:.0f}s, {mode})..."
    )
    started = time.time()
    run = run_rubbos(scenario, hybrid=hybrid)
    wall = time.time() - started
    summary = summarize_rubbos(run)
    rts = summary.client_response_times()
    print(f"wall time: {wall:.1f}s ({scenario.duration / wall:.1f}x realtime)")
    print(
        f"sampled requests: {len(summary.requests)} completed "
        f"post-warmup, {summary.front_drops} front-tier drops"
    )
    print(f"population throughput: {summary.weighted_throughput():.0f} req/s")
    if rts.size:
        print(
            "client RT: "
            + "  ".join(
                f"p{q:g}={np.percentile(rts, q) * 1e3:.1f}ms"
                for q in (50.0, 99.0, 99.9)
            )
        )
    fluid = summary.fluid
    if fluid is not None:
        peak = ", ".join(
            f"{tier}={depth:.0f}" for tier, depth in fluid.peak_queues.items()
        )
        print(
            f"fluid bulk: {fluid.completed:.0f} requests completed, "
            f"{fluid.dropped:.0f} dropped, peak queues: {peak}"
        )
    print(f"[run {name} done in {wall:.1f}s]")
    return 0


def _write_monitor_json(path: str, record: Dict) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def _run_monitor(args) -> int:
    """The ``monitor`` subcommand: live streaming-telemetry display.

    Runs the scenario with :class:`repro.obs.LiveTelemetry` attached
    and a display callback on the pipeline's window hook, so each
    1-second (by default) window prints the moment it closes — the
    interval-by-interval view an operator would watch, produced while
    the simulation is still running.
    """
    from .experiments.datacenter import DATACENTERS
    from .experiments.runner import run_rubbos
    from .obs import TelemetryConfig
    from .obs.streaming import E2E

    scenarios = _trace_scenarios()
    if args.scenario is not None and args.scenario in DATACENTERS:
        return _monitor_datacenter(args, args.scenario)
    if args.scenario is None or args.scenario not in scenarios:
        known = ", ".join(sorted(scenarios) + sorted(DATACENTERS))
        print(
            f"monitor needs a scenario name (one of: {known})",
            file=sys.stderr,
        )
        return 2
    scenario = scenarios[args.scenario]
    overrides = {}
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.users is not None:
        overrides["users"] = args.users
    if overrides:
        scenario = replace(scenario, **overrides)

    config = TelemetryConfig(
        window=args.window,
        slo=args.slo,
        trace_budget_per_window=args.budget,
    )
    hybrid = _hybrid_from_args(args)
    hybrid_note = ""
    if hybrid is not None:
        split = hybrid.split(scenario.users)
        hybrid_note = (
            f", hybrid {split.sampled} sampled + {split.bulk} fluid"
        )
    print(
        f"monitoring scenario {args.scenario!r} "
        f"({scenario.users} users, {scenario.duration:.0f}s, "
        f"{config.window:g}s windows"
        + (f", SLO p{config.slo_quantile:g} < {config.slo:g}s"
           if config.slo is not None else "")
        + hybrid_note
        + ")..."
    )
    started = time.time()
    # Build with the clock held at zero so the display callback is in
    # place before the first window closes, then run for real.
    run = run_rubbos(
        replace(scenario, duration=0.0), tracing=config, hybrid=hybrid
    )
    live = run.obs
    assert live is not None
    # Bulk-population state streamed by the fluid engine: keep the
    # latest fluid.window payload so each telemetry row can show the
    # bulk queue depths alongside the sampled-request tail quantiles.
    latest_fluid = [None]
    if run.fluid is not None:
        live.bus.subscribe(
            "fluid.window", lambda w: latest_fluid.__setitem__(0, w)
        )

    bulk_header = "  " + "bulk a/t/m q".rjust(14) if run.fluid else ""
    print(
        f"{'window':>13}  {'done':>5} {'fail':>4} {'drop':>4}  "
        f"{'p50':>7} {'p99':>7} {'p99.9':>7}  {'traces':>7} {'stride':>6}"
        + bulk_header
    )

    def show(report):
        def cell(q):
            value = report.quantile(q, E2E)
            return "-".rjust(7) if value is None else f"{value * 1e3:6.0f}m"

        marks = ""
        if run.fluid is not None:
            window = latest_fluid[0]
            if window is not None:
                depths = "/".join(
                    f"{window.queues.get(t.name, 0.0):.0f}"
                    for t in run.fluid.tiers
                )
                marks += "  " + depths.rjust(14)
            else:
                marks += "  " + "-".rjust(14)
        if live.detector is not None:
            if live.detector.onsets and (
                live.detector.onsets[-1][0] == report.end
            ):
                marks += "  << onset"
            if live.detector.violations and (
                live.detector.violations[-1][0] == report.end
            ):
                marks += "  !! SLO violation"
        kept = f"{report.base_retained}+{report.promoted}"
        print(
            f"[{report.start:5.1f},{report.end:5.1f})  "
            f"{report.completed:5d} {report.failed:4d} {report.dropped:4d}  "
            f"{cell(50.0)} {cell(99.0)} {cell(99.9)}  "
            f"{kept:>7} {report.stride:6d}{marks}"
        )

    live.pipeline.on_window.append(show)
    run.sim.run(until=scenario.duration)
    live.finalize(scenario.duration)

    report = live.report()
    tracer = report["traces"]
    print(
        f"\ncumulative: "
        + "  ".join(
            f"p{q:g}="
            f"{live.pipeline.estimate(q) * 1e3:.0f}ms"
            for q in config.quantiles
            if live.pipeline.estimate(q) is not None
        )
    )
    print(
        f"traces: {tracer['retained']} retained "
        f"({tracer['base']} base + {tracer['promoted']} promoted), "
        f"{tracer['discarded']} discarded, final stride {tracer['stride']}"
    )
    if live.detector is not None:
        print(
            f"slo: {len(live.detector.violations)} violating windows, "
            f"{len(live.detector.onsets)} millibottleneck onsets"
        )
    if run.network is not None:
        net = run.network
        net_dropped = sum(
            w.net_dropped for w in live.pipeline.reports
        )
        print(
            f"network: {net.messages} transfers, {net.delivered} hops "
            f"delivered, {net.drops} queue drops "
            f"({net_dropped} inside telemetry windows)"
        )
    kernel = report["kernel"]
    print(
        f"kernel: {kernel['events_dispatched']} events, "
        f"{kernel.get('wall_per_sim_second', 0.0) * 1e3:.1f} ms wall "
        f"per sim-second"
    )
    print(f"[monitor {args.scenario} done in {time.time() - started:.1f}s]")
    if args.json:
        record = dict(report)
        record["experiment"] = args.scenario
        record["windows_printed"] = len(live.pipeline.reports)
        _write_monitor_json(args.json, record)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Tail Amplification in n-Tier Systems' "
            "(MemCA, ICDCS 2019): regenerate any evaluation figure."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="list",
        help=(
            "experiment name, 'all', 'list' (default), 'trace', "
            "'monitor', 'sweep', or 'run'"
        ),
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help=(
            "scenario name for 'trace'/'monitor'/'run' (fig9, fig2, "
            "private-cloud, ec2, net-baseline, net-attack, "
            "stealth-dual; multi-host: dc-2host, dc-4host, dc-8host, "
            "dc-16host) or experiment name for 'sweep'"
        ),
    )
    parser.add_argument(
        "--shards",
        type=_parse_shards,
        default=None,
        help="worker-process count for multi-host scenarios "
             "('run'/'monitor' on dc-* scenarios; default: one per "
             "host, 1 = single-process reference mode, 'auto' = "
             "min(hosts, cpu cores))",
    )
    parser.add_argument(
        "--out",
        default=".",
        help="output directory for 'trace' span/trace files",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="override the scenario duration in seconds "
             "('trace'/'monitor')",
    )
    parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="override the closed-loop user count ('trace'/'monitor'; "
             "'run' co-scales tier capacities via with_users)",
    )
    parser.add_argument(
        "--hybrid",
        action="store_true",
        help="hybrid fluid/DES mode: simulate --sample-fraction of the "
             "users discretely, fold the rest into a mean-field fluid "
             "model ('run'/'monitor')",
    )
    parser.add_argument(
        "--sample-fraction",
        type=float,
        default=0.05,
        help="fraction of users kept in the discrete-event kernel under "
             "--hybrid (default: 0.05)",
    )
    parser.add_argument(
        "--fluid-tick",
        type=float,
        default=0.02,
        help="fluid integration step in seconds under --hybrid "
             "(default: 0.02)",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=1.0,
        help="telemetry window length in seconds ('monitor' only)",
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=None,
        help="end-to-end tail SLO in seconds; enables the violation "
             "detector ('monitor' only)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=8,
        help="base-sample trace retention budget per window "
             "('monitor' only)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.0,
        help="slow-request threshold in seconds for attribution",
    )
    parser.add_argument(
        "--sample-every",
        type=int,
        default=1,
        help="keep every n-th finished request's trace, plus every "
             "failed or tail-promoted one (1 = all; 'trace' only)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the kernel wall-time-per-sim-second breakdown "
             "('trace' only)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep process-pool size (default: CPU count; 1 = inline)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the sweep run cache (always simulate)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".sweep-cache",
        help="sweep run-cache directory (default: .sweep-cache)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink sweep durations/grids for smoke runs",
    )
    parser.add_argument(
        "--expect-cached",
        action="store_true",
        help="exit nonzero if any sweep cell had to be re-simulated",
    )
    parser.add_argument(
        "--json",
        default=None,
        help="write run stats to this JSON file ('sweep' appends a "
             "record, 'monitor' writes its telemetry report)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "trace":
        return _run_trace(args)

    if args.experiment == "run":
        return _run_run(args)

    if args.experiment == "monitor":
        return _run_monitor(args)

    if args.experiment == "sweep":
        return _run_sweep(args)

    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        print("available experiments:\n")
        for name, (description, _fn) in EXPERIMENTS.items():
            print(f"  {name.ljust(width)}  {description}")
        print(f"\n  {'all'.ljust(width)}  run everything above")
        print(
            f"  {'trace <scenario>'.ljust(width)}  traced run + span "
            "dumps + root-cause attribution"
        )
        print(
            f"  {'monitor <scenario>'.ljust(width)}  live streaming "
            "telemetry: windowed tails, adaptive traces, SLO alerts"
        )
        print(
            f"  {'sweep <experiment>'.ljust(width)}  parallel + cached "
            "regeneration (--workers N, --no-cache)"
        )
        print(
            f"  {'run <scenario>'.ljust(width)}  one scenario end to "
            "end (--users N --hybrid --sample-fraction F; "
            "dc-* scenarios take --shards N)"
        )
        return 0

    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; "
            "try 'python -m repro list'",
            file=sys.stderr,
        )
        return 2

    for name in names:
        description, runner = EXPERIMENTS[name]
        print(f"=== {name}: {description} ===")
        started = time.time()
        print(runner())
        print(f"[{name} done in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
