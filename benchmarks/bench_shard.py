"""Sharded-kernel benchmark: determinism gate + exchange overhead.

Three questions about ``repro.sim.sharded`` + ``run_datacenter``, each
with a ``--check`` gate:

* **identity** — a sharded run (one worker process per host,
  synchronized by the adaptive safe-window exchange) must be
  *byte-identical* to the single-process reference: same post-warmup
  request CSV, the exact same total dispatched-event count, and an
  identical merged latency sketch.  This gate is unconditional — it
  holds on any box, at any core count, and is the property DESIGN.md
  §12 proves.
* **frame thinning** — adaptive window widening and per-link silence
  must keep the frames on the wire at most ``FRAME_RATIO_CEILING`` of
  ``rounds x cross-shard links`` (the one-frame-per-link-per-round
  exchange a shard would otherwise pay).  The counts are deterministic
  and core-count-independent.  Gated in full mode (dc-4host, whose
  spine links are several base windows wide); in quick mode the ratio
  is recorded but not gated — dc-2host's only cross-host link sits at
  the base lookahead, so there is nothing to thin.
* **speedup** — the *parallel leg* runs the scenario at
  ``shards = min(hosts, cores)`` (one pinned CPU per worker) in
  ``PARALLEL_PAIRS`` interleaved (single-process, sharded) pairs; the
  median per-pair wall-clock ratio must reach ``SPEEDUP_FLOOR``.
  Wall clock is the one machine-dependent gate: it is only enforced
  on boxes with at least 2 cores; on one core the measured ratio is
  recorded and an explicit ``wall-clock gate skipped (1 core)`` line
  is printed — byte identity and the frame counts, not wall clock,
  are the portable contracts.  The one-worker-per-host run records its
  ratio without a gate: with more workers than cores they time-share.

Full mode additionally runs the **dc-8host hybrid leg**: every shard
worker carries a per-host million-user fluid bulk (8M users total),
gated byte-identical to its own single-process reference with the
wall time recorded.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py            # full run
    PYTHONPATH=src python benchmarks/bench_shard.py --check    # full gate
    PYTHONPATH=src python benchmarks/bench_shard.py --quick --check  # CI

Results land in ``benchmarks/results/BENCH_shard.json`` (or
``BENCH_shard_quick.json`` with ``--quick``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import sys
import time

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)

#: Parallel-leg wall-clock floors (single-process wall over sharded
#: wall), gated only on boxes with >= 2 cores.  Full mode: dc-4host at
#: 2 workers runs the event-weighted groups ``[[0], [1, 2, 3]]`` —
#: apache alone against tomcat and both replicas, ~40% | ~60% of the
#: events, over a spine-wide window — and on a 2-core x86_64 VM
#: measured medians of 1.46x, 1.47x and 1.61x (1.46x committed in
#: ``BENCH_shard.json``).  The floor keeps the old margin for speed
#: drift: equal-count groups measured 1.02-1.23x against a 0.9x floor
#: (x0.88), and 1.46x x 0.88 rounds to 1.3x.  Quick mode only proves
#: the machinery isn't pathological — dc-2host finishes single-process
#: in well under a second, so worker spawn + thousands of window
#: exchanges dominate any 2-way parallelism; the floor is a
#: 5x-slowdown tripwire, not a speedup claim.
SPEEDUP_FLOOR = {"full": 1.3, "quick": 0.2}

#: Interleaved (single-process, sharded) pairs behind the parallel
#: leg's ratio: pairing cancels most of the box's speed drift.
PARALLEL_PAIRS = 3

#: Frames on the wire over ``rounds x cross-shard links``, gated in
#: full mode.  dc-4host at 4 workers on the committed record: 5340
#: frames over 1334 rounds x 6 links = 0.67.
FRAME_RATIO_CEILING = 0.75

SCENARIOS = {"full": "dc-4host", "quick": "dc-2host"}


def _requests_csv(run) -> str:
    """The run's post-warmup request table as canonical CSV text.

    Same row encoding as the committed determinism goldens
    (``tests/_golden.requests_csv_text``), so "the CSVs match" here
    means exactly what ``tests/test_determinism.py`` pins.
    """
    from repro.analysis.export import requests_to_rows

    rows = requests_to_rows(
        run.client_requests(), tiers=("apache", "tomcat", "mysql")
    )
    fields = list(rows[0].keys()) if rows else ["rid"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _sketch_state(run) -> dict:
    sketch = run.latency
    return {
        "count": sketch.count,
        "total": sketch.total,
        "zero_count": sketch.zero_count,
        "buckets": dict(sketch.buckets),
    }


def _measure(scenario, shards: int) -> tuple:
    from repro.experiments.datacenter import run_datacenter

    t0 = time.perf_counter()
    run = run_datacenter(scenario, shards=shards)
    wall = time.perf_counter() - t0
    return run, wall


def _identity(run, reference) -> dict:
    single, single_csv = reference
    return {
        "requests_csv": _requests_csv(run) == single_csv,
        "event_count": run.event_count == single.event_count,
        "latency_sketch": _sketch_state(run) == _sketch_state(single),
    }


def _sharded_record(run, wall: float, reference) -> dict:
    links = len(run.scenario.channel_pairs())
    return {
        "wall_seconds": wall,
        "groups": run.groups,
        "window_seconds": run.window,
        "events": run.event_count,
        "completed": len(run.completed),
        "failed": len(run.failed),
        "rounds": run.rounds,
        "cross_shard_links": links,
        "cross_shard_messages": sum(r.sent for r in run.shard_results),
        "frames": run.frames_exchanged,
        "wire_bytes": run.wire_bytes,
        "frame_ratio": run.frames_exchanged / (run.rounds * links),
        "identity": _identity(run, reference),
        "per_shard": [
            {
                "host": r.host,
                "tiers": list(r.tiers),
                "events": r.events,
                "sent": r.sent,
                "received": r.received,
                "frames": r.frames,
            }
            for r in run.shard_results
        ],
    }


def bench_parallel(scenario, cores: int) -> dict:
    """The parallel leg: single-process vs ``min(hosts, cores)``
    workers, as the median ratio over interleaved pairs."""
    from repro.experiments.datacenter import shard_groups

    shards = min(len(scenario.shards), cores)
    pairs = []
    for _ in range(PARALLEL_PAIRS):
        single = _measure(scenario, 1)[1]
        sharded = _measure(scenario, shards)[1] if shards > 1 else single
        pairs.append([single, sharded])
    ratios = sorted(single / sharded for single, sharded in pairs)
    return {
        "shards": shards,
        "groups": shard_groups(scenario, shards),
        "pairs_wall_seconds": pairs,
        "speedup": ratios[len(ratios) // 2],
    }


def bench_shard(quick: bool, cores: int) -> dict:
    from repro.experiments.datacenter import DATACENTERS

    name = SCENARIOS["quick" if quick else "full"]
    scenario = DATACENTERS[name]
    shards = len(scenario.shards)
    # First, while this process's heap is small: the in-process
    # single-process runs pay a full collection over everything the
    # benchmark still holds.
    parallel = bench_parallel(scenario, cores)

    single, single_wall = _measure(scenario, 1)
    single_csv = _requests_csv(single)
    run, wall = _measure(scenario, shards)
    sharded = _sharded_record(run, wall, (single, single_csv))
    sharded["speedup"] = single_wall / wall
    return {
        "scenario": name,
        "users": scenario.base.users,
        "sim_seconds": scenario.base.duration,
        "shards": shards,
        "window_seconds": scenario.window,
        "request_rows": single_csv.count("\n") - 1,
        "single_process": {
            "wall_seconds": single_wall,
            "events": single.event_count,
            "completed": len(single.completed),
            "failed": len(single.failed),
        },
        "sharded": sharded,
        "parallel": parallel,
    }


def bench_hybrid() -> dict:
    """The dc-8host hybrid leg: 1M fluid users per host, 8 hosts."""
    from repro.experiments.datacenter import DATACENTERS

    scenario = DATACENTERS["dc-8host"]
    shards = len(scenario.shards)
    single, single_wall = _measure(scenario, 1)
    single_csv = _requests_csv(single)
    run, wall = _measure(scenario, shards)
    fluid = run.fluid_totals
    return {
        "scenario": "dc-8host",
        "users": scenario.base.users,
        "bulk_users_per_host": scenario.bulk.users_per_host,
        "bulk_users_total": fluid["bulk_users"] if fluid else 0.0,
        "sim_seconds": scenario.base.duration,
        "shards": shards,
        "single_wall_seconds": single_wall,
        "sharded_wall_seconds": wall,
        "fluid_completed": fluid["completed"] if fluid else 0.0,
        "fluid_dropped": fluid["dropped"] if fluid else 0.0,
        "identity": _identity(run, (single, single_csv)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: dc-2host (2 workers) instead of dc-4host (4), "
             "and no dc-8host hybrid leg",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless every sharded run is byte-identical "
             "to the single-process reference, frames stay under the "
             "ceiling (full mode), and (when the box has enough cores) "
             "the wall-clock floor holds",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()

    # The CPUs this process may run on: what shard workers pin to.
    cpu_count = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    report = {
        "kind": "sharded-kernel-benchmark",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": cpu_count,
    }
    result = bench_shard(args.quick, cpu_count)
    report.update(result)

    print(
        f"{result['scenario']}: {result['users']:,} users x "
        f"{result['sim_seconds']:g}s over {result['shards']} hosts, "
        f"window {result['window_seconds'] * 1e3:.2f}ms, "
        f"single-process {result['single_process']['wall_seconds']:.2f}s"
    )
    rec = result["sharded"]
    identity = rec["identity"]
    print(
        f"  sharded: {rec['wall_seconds']:.2f}s, "
        f"{rec['rounds']} rounds x {rec['cross_shard_links']} links, "
        f"{rec['frames']} frames (ratio {rec['frame_ratio']:.2f}), "
        f"{rec['cross_shard_messages']} messages"
    )
    print(
        f"           speedup {rec['speedup']:.2f}x; "
        f"identity: csv={identity['requests_csv']} "
        f"({result['request_rows']} rows) "
        f"events={identity['event_count']} ({rec['events']:,}) "
        f"sketch={identity['latency_sketch']}"
    )
    par = result["parallel"]
    walls = ", ".join(
        f"{single:.2f}s/{sharded:.2f}s"
        for single, sharded in par["pairs_wall_seconds"]
    )
    print(
        f"  parallel leg: {par['shards']} workers {par['groups']} on "
        f"{cpu_count} cores, "
        f"single/sharded {walls}: median speedup "
        f"{par['speedup']:.2f}x"
    )

    hybrid = None
    if not args.quick:
        hybrid = bench_hybrid()
        report["hybrid"] = hybrid
        print(
            f"{hybrid['scenario']} hybrid leg: "
            f"{hybrid['bulk_users_total']:,.0f} fluid users "
            f"({hybrid['bulk_users_per_host']:,} per host) + "
            f"{hybrid['users']:,} discrete, "
            f"single {hybrid['single_wall_seconds']:.2f}s, "
            f"{hybrid['shards']} shards {hybrid['sharded_wall_seconds']:.2f}s"
        )
        print(
            f"  fluid: {hybrid['fluid_completed']:.0f} completed, "
            f"{hybrid['fluid_dropped']:.0f} dropped; identity: "
            f"csv={hybrid['identity']['requests_csv']} "
            f"events={hybrid['identity']['event_count']} "
            f"sketch={hybrid['identity']['latency_sketch']}"
        )

    out = args.out or os.path.join(
        RESULTS_DIR,
        "BENCH_shard_quick.json" if args.quick else "BENCH_shard.json",
    )
    out_dir = os.path.dirname(out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")

    if args.check:
        failed = False

        def gate(ok: bool, ok_msg: str, fail_msg: str) -> None:
            nonlocal failed
            if ok:
                print(f"OK: {ok_msg}")
            else:
                print(f"FAIL: {fail_msg}", file=sys.stderr)
                failed = True

        gate(
            result["request_rows"] > 0,
            f"{result['request_rows']} post-warmup requests compared",
            "no post-warmup requests: the identity gates compared "
            "nothing",
        )
        legs = [("sharded", rec["identity"])]
        if hybrid is not None:
            legs.append(("dc-8host hybrid", hybrid["identity"]))
        for leg, identity in legs:
            for check, ok in identity.items():
                gate(
                    ok,
                    f"[{leg}] {check} identical to single-process",
                    f"[{leg}] {check} differs from single-process "
                    f"reference",
                )
        ratio = rec["frame_ratio"]
        budget = (
            f"{rec['frames']} frames over {rec['rounds']} rounds x "
            f"{rec['cross_shard_links']} links"
        )
        if args.quick:
            # dc-2host's only cross-host link sits at the base
            # lookahead, so there is nothing to thin; the ceiling is a
            # dc-4host (full) property.
            print(
                f"SKIP: frame ceiling ({FRAME_RATIO_CEILING:g}) not "
                f"gated in quick mode; {budget} = {ratio:.2f}"
            )
        else:
            gate(
                ratio <= FRAME_RATIO_CEILING,
                f"{budget} = {ratio:.2f} <= {FRAME_RATIO_CEILING:g}",
                f"{budget} = {ratio:.2f} > {FRAME_RATIO_CEILING:g}",
            )
        floor = SPEEDUP_FLOOR["quick" if args.quick else "full"]
        where = f"{par['shards']} workers on {cpu_count} cores"
        if cpu_count >= 2:
            gate(
                par["speedup"] >= floor,
                f"parallel speedup {par['speedup']:.2f}x >= {floor:g}x "
                f"({where})",
                f"parallel speedup {par['speedup']:.2f}x < {floor:g}x "
                f"({where})",
            )
        else:
            print(
                f"SKIP: wall-clock gate skipped (1 core); floor "
                f"{floor:g}x, measured {par['speedup']:.2f}x"
            )
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
