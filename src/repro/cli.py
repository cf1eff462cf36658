"""Command-line interface: regenerate any paper figure from a shell.

``python -m repro list`` shows the available experiments;
``python -m repro fig2`` (etc.) prints one committed table, or a group
of them (``fig3`` is fig3, fig3_ec2 and fig3_hypervisors), and
``--out DIR`` also writes each to ``DIR/<name>.txt``;
``python -m repro all --out benchmarks/results`` regenerates them all;
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
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from .analysis import format_replications, format_series, replicate
from .experiments import (
    PRIVATE_CLOUD,
    compare_attack_programs,
    condition1_ablation,
    dual_tier_attack,
    rpc_vs_tandem,
    run_baseline_comparison,
    run_capacity_validation,
    run_controller,
    run_defense,
    run_dial,
    run_fig2_both,
    run_fig3,
    run_fig6,
    run_fig7,
    run_fig9,
    run_fig10,
    run_fig11,
    run_net_comparison,
    run_overhead_study,
    run_placement_study,
    run_rubbos,
    run_validation,
    sweep_burst_length,
    sweep_degradation,
    sweep_ecn_threshold,
    sweep_interval,
    sweep_rto_schedule,
    sweep_service_distribution,
    sweep_switch_buffer,
    sweep_target_tier,
)
from .experiments.fig3 import run_fig3_hypervisors
from .experiments.parallel import RunCache, SweepExecutor
from .hardware import EC2_E5_2680

__all__ = ["main", "FIGURES"]


class Figure(NamedTuple):
    """One committed table, ``benchmarks/results/<key>.txt``.

    ``run`` computes the result with the table's parameters, routing
    its simulations through the given executor where the experiment
    takes one; ``render`` turns the result into the table's text.
    """

    description: str
    run: Callable[[SweepExecutor], object]
    render: Callable[[object], str] = lambda result: result.render()


def _fig2_text(panels) -> str:
    ec2, private = panels
    return ec2.render() + "\n\n" + private.render()


def _fig3_hypervisors_text(results) -> str:
    return "\n\n".join(
        f"--- {name} ---\n{result.render()}"
        for name, result in results.items()
    )


def _fig6_text(result) -> str:
    """Fig 6's table plus each tier's attack-model queue trajectory."""
    lines = [result.render(), ""]
    for tier in result.scenario.tier_names:
        series = result.attack[tier]
        lines.append(
            format_series(
                f"attack-model {tier} queue",
                list(series.times),
                list(series.values),
                max_points=25,
                value_format="{:.0f}",
            )
        )
    return "\n".join(lines)


def _replication_metrics(seed: int) -> Dict[str, float]:
    """The Fig 2 private-cloud headline numbers under one seed."""
    scenario = replace(
        PRIVATE_CLOUD, name=f"replication/{seed}", seed=seed,
        duration=45.0,
    )
    run = run_rubbos(scenario)
    rts = run.client_requests().column("response_time")
    util = run.util_monitors["mysql"].series.between(
        scenario.warmup, scenario.duration
    )
    return {
        "client_p95_s": float(np.percentile(rts, 95)),
        "client_p50_ms": float(np.percentile(rts, 50) * 1e3),
        "fraction_above_rto": float(np.mean(rts > 1.0)),
        "mysql_avg_util": util.mean(),
        "drops": float(run.app.front.drops),
    }


#: Table name -> how to compute and render it.  ``python -m repro
#: <name>`` runs every key equal to ``name`` or starting with
#: ``name_``; ``tests/test_figures.py`` checks each table against its
#: committed copy and asserts the paper claims on the result.
FIGURES: Dict[str, Figure] = {
    "fig2": Figure(
        "tail amplification per tier (EC2 + private cloud)",
        lambda ex: run_fig2_both(executor=ex),
        _fig2_text,
    ),
    "fig3": Figure(
        "memory bandwidth degradation under the two attacks",
        lambda ex: run_fig3(executor=ex),
    ),
    "fig3_ec2": Figure(
        "Fig 3 bandwidth profiling on the EC2 host spec",
        lambda ex: run_fig3(spec=EC2_E5_2680, executor=ex),
    ),
    "fig3_hypervisors": Figure(
        "Fig 3 under KVM, Xen, VMware and Hyper-V",
        lambda ex: run_fig3_hypervisors(executor=ex),
        _fig3_hypervisors_text,
    ),
    "fig6": Figure(
        "cross-tier queue overflow vs tandem queue",
        lambda ex: run_fig6(executor=ex),
        _fig6_text,
    ),
    "fig7": Figure(
        "percentile RT under the three queueing models",
        lambda ex: run_fig7(executor=ex),
    ),
    "fig9": Figure(
        "8-second fine-grained damage snapshot",
        lambda ex: run_fig9(duration=40.0, window_start=16.0, executor=ex),
    ),
    "fig10": Figure(
        "stealthiness vs monitoring granularity / auto-scaling",
        lambda ex: run_fig10(executor=ex),
    ),
    "fig11": Figure(
        "LLC-miss signatures of the two attack programs",
        lambda ex: run_fig11(duration=45.0, executor=ex),
    ),
    "model_validation": Figure(
        "Eqs. 2-10 closed-form model vs DES measurements",
        lambda ex: run_validation(),
    ),
    "controller": Figure(
        "MemCA-BE feedback control convergence",
        lambda ex: run_controller(),
    ),
    "ablation_length": Figure(
        "burst length L: damage vs stealth",
        lambda ex: sweep_burst_length(executor=ex),
    ),
    "ablation_interval": Figure(
        "burst interval I: rho dilution",
        lambda ex: sweep_interval(executor=ex),
    ),
    "ablation_degradation": Figure(
        "degradation index D: the Condition 2 threshold",
        lambda ex: sweep_degradation(executor=ex),
    ),
    "ablation_condition1": Figure(
        "queue-size ordering (Condition 1)",
        lambda ex: condition1_ablation(executor=ex),
    ),
    "ablation_rpc": Figure(
        "inter-tier coupling: sync RPC vs tandem",
        lambda ex: rpc_vs_tandem(executor=ex),
    ),
    "ablation_programs": Figure(
        "attack programs: lock vs bus saturation vs LLC cleansing",
        lambda ex: compare_attack_programs(executor=ex),
    ),
    "ablation_target": Figure(
        "which tier to co-locate with",
        lambda ex: sweep_target_tier(executor=ex),
    ),
    "ablation_distribution": Figure(
        "service-demand distribution at equal means",
        lambda ex: sweep_service_distribution(executor=ex),
    ),
    "ablation_dual_tier": Figure(
        "multi-tier adversaries: intensity does not split",
        lambda ex: dual_tier_attack(executor=ex),
    ),
    "ablation_switch_buffer": Figure(
        "fabric buffer depth: drop early vs absorb",
        lambda ex: sweep_switch_buffer(executor=ex),
    ),
    "ablation_ecn": Figure(
        "ECN marking threshold vs drop-tail",
        lambda ex: sweep_ecn_threshold(executor=ex),
    ),
    "ablation_rto": Figure(
        "link RTO schedule: floor and backoff",
        lambda ex: sweep_rto_schedule(executor=ex),
    ),
    "defense": Figure(
        "millibottleneck-triggered migration defense (extension)",
        lambda ex: run_defense(executor=ex),
    ),
    "defense_cat_and_mouse": Figure(
        "migration defense against re-co-location after 25 s",
        lambda ex: run_defense(recolocate_after=25.0, executor=ex),
    ),
    "capacity": Figure(
        "baseline capacity: DES vs Mean Value Analysis",
        lambda ex: run_capacity_validation(executor=ex),
    ),
    "baselines": Figure(
        "MemCA vs flooding vs pulsating HTTP attacks",
        lambda ex: run_baseline_comparison(executor=ex),
    ),
    "placement": Figure(
        "co-residency campaigns (the threat-model precondition)",
        lambda ex: run_placement_study(strategies=("random",), executor=ex),
    ),
    "dial": Figure(
        "DIAL-style interference-aware load balancing (extension)",
        lambda ex: run_dial(),
    ),
    "overhead": Figure(
        "the monitoring dilemma: agent cost vs attack visibility",
        lambda ex: run_overhead_study(),
    ),
    "netcompare": Figure(
        "memory vs NIC vs combined cross-resource attack",
        lambda ex: run_net_comparison(executor=ex),
    ),
    "replication": Figure(
        "the Fig 2 private-cloud scenario across 5 seeds",
        lambda ex: replicate(_replication_metrics, seeds=(1, 2, 3, 5, 8)),
        lambda reps: format_replications(
            reps, title="Fig 2 scenario across 5 seeds"
        ),
    ),
}


def _select(name: str) -> List[str]:
    """Registry keys for ``name``: all for ``all``, else it and ``name_*``."""
    if name == "all":
        return list(FIGURES)
    return [k for k in FIGURES if k == name or k.startswith(name + "_")]


def _render_figures(
    keys: List[str], executor: SweepExecutor, out: Optional[str]
) -> None:
    """Print each selected table; with ``out``, also write ``<key>.txt``."""
    if out is not None:
        os.makedirs(out, exist_ok=True)
    for key in keys:
        figure = FIGURES[key]
        print(f"=== {key}: {figure.description} ===")
        started = time.time()
        text = figure.render(figure.run(executor))
        print(text)
        if out is not None:
            with open(os.path.join(out, f"{key}.txt"), "w") as fh:
                fh.write(text + "\n")
        print(f"[{key} done in {time.time() - started:.1f}s]\n")


def _unknown(message: str) -> int:
    print(
        f"{message}; known tables: {', '.join(FIGURES)} "
        "(a prefix before '_' selects a group, 'all' every table)",
        file=sys.stderr,
    )
    return 2


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
    """The ``sweep`` subcommand: the tables through workers and the cache."""
    if args.scenario is None:
        return _unknown("sweep needs an experiment name")
    if not _select(args.scenario):
        return _unknown(f"sweep: unknown experiment {args.scenario!r}")
    cache = None if args.no_cache else RunCache(args.cache_dir)
    executor = SweepExecutor(max_workers=args.workers, cache=cache)
    started = time.time()
    _render_figures(_select(args.scenario), executor, args.out)
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

    out = "." if args.out is None else args.out
    os.makedirs(out, exist_ok=True)
    spans_path = os.path.join(out, f"{args.scenario}-spans.jsonl")
    chrome_path = os.path.join(out, f"{args.scenario}-trace.json")
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
    rts = run.app.completed.column("response_time")
    if len(rts):
        p95, p99 = np.percentile(rts, [95.0, 99.0])
        print(
            f"response time: count={len(rts)} "
            f"mean={rts.mean():.3f}s p95={p95:.3f}s p99={p99:.3f}s"
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


def _resolve_shards(args, scenario) -> Optional[int]:
    """Resolve ``--shards`` for a datacenter scenario.

    ``auto`` picks ``min(hosts, cpu cores)`` — every worker gets a
    core when the box has enough, and workers are merged into grouped
    shards rather than oversubscribing when it does not.  Unset
    defaults to one shard per host (the maximally parallel layout).
    An explicit count outside ``1..hosts`` prints one error line and
    returns ``None``.
    """
    hosts = len(scenario.shards)
    if args.shards == "auto":
        return max(1, min(hosts, os.cpu_count() or 1))
    if args.shards is None:
        return hosts
    if not 1 <= args.shards <= hosts:
        print(
            f"--shards must be between 1 and {hosts} for "
            f"{scenario.name} ({hosts} hosts), got {args.shards}",
            file=sys.stderr,
        )
        return None
    return args.shards


def _mode_flag_error(args, name: str, multi_host: bool) -> bool:
    """Reject a mode flag the scenario kind does not take.

    ``--shards`` only partitions multi-host ``dc-*`` scenarios, and
    ``--hybrid`` only applies to single-host ones (a datacenter's fluid
    bulk is part of its scenario).  Prints one error line and returns
    True on a mismatch.
    """
    if args.shards is not None and not multi_host:
        message = (
            f"--shards only applies to multi-host dc-* scenarios; "
            f"{name} is a single-host scenario"
        )
    elif args.hybrid and multi_host:
        message = (
            f"--hybrid only applies to single-host scenarios; "
            f"{name} is a multi-host dc-* scenario"
        )
    else:
        return False
    print(message, file=sys.stderr)
    return True


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
    from .experiments.datacenter import run_datacenter

    scenario = _datacenter_scenario(args, name)
    shards = _resolve_shards(args, scenario)
    if shards is None:
        return 2
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
    if shards is None:
        return 2
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
    from .experiments.datacenter import DATACENTERS
    from .experiments.runner import run_rubbos
    from .experiments.summary import summarize_rubbos

    scenarios = _trace_scenarios()
    name = args.scenario if args.scenario is not None else "private-cloud"
    if name not in scenarios and name not in DATACENTERS:
        known = ", ".join(sorted(scenarios) + sorted(DATACENTERS))
        print(
            f"run needs a scenario name (one of: {known})",
            file=sys.stderr,
        )
        return 2
    if _mode_flag_error(args, name, name in DATACENTERS):
        return 2
    if name in DATACENTERS:
        return _run_datacenter(args, name)
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
    name = args.scenario
    if name not in scenarios and name not in DATACENTERS:
        known = ", ".join(sorted(scenarios) + sorted(DATACENTERS))
        print(
            f"monitor needs a scenario name (one of: {known})",
            file=sys.stderr,
        )
        return 2
    if _mode_flag_error(args, name, name in DATACENTERS):
        return 2
    if name in DATACENTERS:
        return _monitor_datacenter(args, name)
    scenario = scenarios[name]
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
    # Bulk-population state streamed by the fluid engine: keep the
    # latest fluid.window payload so each telemetry row can show the
    # bulk queue depths alongside the sampled-request tail quantiles.
    latest_fluid = [None]

    def attach_display(run) -> None:
        # In place before the first window closes.
        live = run.obs
        if run.fluid is not None:
            live.bus.subscribe(
                "fluid.window", lambda w: latest_fluid.__setitem__(0, w)
            )
        bulk_header = "  " + "bulk a/t/m q".rjust(14) if run.fluid else ""
        print(
            f"{'window':>13}  {'done':>5} {'fail':>4} {'drop':>4}  "
            f"{'p50':>7} {'p99':>7} {'p99.9':>7}  {'traces':>7} "
            f"{'stride':>6}" + bulk_header
        )

        def show(report):
            def cell(q):
                value = report.quantile(q, E2E)
                if value is None:
                    return "-".rjust(7)
                return f"{value * 1e3:6.0f}m"

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
                f"{report.completed:5d} {report.failed:4d} "
                f"{report.dropped:4d}  "
                f"{cell(50.0)} {cell(99.0)} {cell(99.9)}  "
                f"{kept:>7} {report.stride:6d}{marks}"
            )

        live.pipeline.on_window.append(show)

    run = run_rubbos(
        scenario, attach=attach_display, tracing=config, hybrid=hybrid
    )
    live = run.obs

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
        default=None,
        help="output directory: each table's <name>.txt for experiments "
             "and 'sweep', span/trace files for 'trace' (default: .)",
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
        width = max(len(name) for name in FIGURES)
        print("available experiments:\n")
        for name, figure in FIGURES.items():
            print(f"  {name.ljust(width)}  {figure.description}")
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

    keys = _select(args.experiment)
    if not keys:
        return _unknown(f"unknown experiment {args.experiment!r}")
    _render_figures(keys, SweepExecutor.inline(), args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
