"""Live-telemetry benchmark: sketch accuracy, overhead, detection.

Three questions about ``repro.obs.streaming``, each with a ``--check``
gate:

* **accuracy** — do the streaming P99/P99.9 estimates (log-bucketed
  sketches, O(1) memory per window) land within 5% relative error of
  the exact post-hoc percentiles computed from every completed request
  of the same run?
* **overhead** — on the one observability stack, does the default
  live config (``tracing=TelemetryConfig()``: windowed sketches,
  sampled + promoted retention) cost at most 3% over keep-all tracing
  (``tracing=True``)?  Both stage spans for every request; the live
  config additionally feeds four sketches per completion and
  *discards* most trace rows, so it should ride within noise of
  keep-all while retaining orders of magnitude fewer traces.
* **retention** — with the base sample pinned at 1/64, does
  slow-request promotion still keep >= 99% of the requests above the
  true P99.9 as full traces?
* **detection** — does the latency-triggered defense (consuming live
  ``slo.violation`` topics) migrate the victim no later than the
  post-hoc utilization-episode baseline?

Methodology follows ``bench_kernel.py``: the overhead comparison runs
each mode in a **fresh python process** (the script re-execs itself
with ``--worker``) and takes the minimum over ``--repeat`` runs; the
accuracy/retention/detection sections are single deterministic runs
(fixed seeds) where wall time does not matter.

Usage::

    PYTHONPATH=src python benchmarks/bench_live.py            # full run
    PYTHONPATH=src python benchmarks/bench_live.py --check    # full gate
    PYTHONPATH=src python benchmarks/bench_live.py --quick --check  # CI

Results land in ``benchmarks/results/BENCH_live.json`` (or
``BENCH_live_quick.json`` with ``--quick``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import subprocess
import sys
import time

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)

#: ``--check`` gates.  Accuracy/retention hold at any scale (the sketch
#: carries a 1% per-value guarantee); the overhead gate is tight only
#: in full mode — quick mode runs once in-process on a possibly noisy
#: box, so it gets a gross-regression tripwire instead.
ACCURACY_RELATIVE_ERROR = 0.05
RETENTION_FLOOR = 0.99
OVERHEAD_VS_TRACED = {"full": 0.03, "quick": 0.20}


def _fig9_scenario(quick: bool):
    from repro.experiments.configs import PRIVATE_CLOUD

    if quick:
        return dataclasses.replace(
            PRIVATE_CLOUD, users=2000, duration=10.0, warmup=0.0
        )
    return dataclasses.replace(PRIVATE_CLOUD, warmup=0.0)


def run_once(mode: str, quick: bool) -> dict:
    """One timed run in the current process (overhead section)."""
    from repro.experiments.runner import run_rubbos
    from repro.obs import TelemetryConfig

    scenario = _fig9_scenario(quick)
    tracing = {
        "plain": False, "traced": True, "telemetry": TelemetryConfig()
    }.get(mode)
    if tracing is None:
        raise ValueError(f"unknown mode {mode!r}")
    # Quick mode times every mode in one process: collect the previous
    # run's cyclic garbage here, outside the timer, so no mode pays for
    # tearing down the one before it.
    gc.collect()
    t0 = time.perf_counter()
    run = run_rubbos(scenario, tracing=tracing)
    wall = time.perf_counter() - t0
    return {
        "mode": mode,
        "wall_seconds": wall,
        "completed_requests": len(run.app.completed),
    }


def measure_fresh(mode: str, quick: bool, repeat: int) -> dict:
    """Min-over-repeats, one fresh subprocess per repeat."""
    walls = []
    best = None
    for _ in range(repeat):
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--worker",
            "--mode", mode,
        ]
        if quick:
            cmd.append("--quick")
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            cmd, env=env, check=True, capture_output=True, text=True
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        walls.append(result["wall_seconds"])
        if best is None or result["wall_seconds"] < best["wall_seconds"]:
            best = result
    best["wall_seconds_repeats"] = walls
    return best


def bench_accuracy(quick: bool) -> dict:
    """Streaming estimates vs exact post-hoc percentiles, one run.

    The base stride is pinned at 1/64 (no budget controller) so the
    retention number answers the ISSUE's question exactly: does
    promotion alone rescue the top-0.1% tail from a 1.6% base sample?
    """
    import numpy as np

    from repro.experiments.runner import run_rubbos
    from repro.obs import TelemetryConfig

    scenario = _fig9_scenario(quick)
    config = TelemetryConfig(trace_budget_per_window=None)
    run = run_rubbos(scenario, tracing=config)
    live = run.obs
    completed = run.app.completed
    rts = np.array([r.response_time for r in completed], dtype=float)

    quantiles = {}
    for q in (50.0, 99.0, 99.9):
        exact = float(np.percentile(rts, q))
        streamed = live.pipeline.estimate(q)
        quantiles[f"p{q:g}"] = {
            "exact": exact,
            "streaming": streamed,
            "relative_error": abs(streamed - exact) / exact,
        }

    true_p999 = float(np.percentile(rts, 99.9))
    tail = [r for r in completed if r.response_time >= true_p999]
    tail_traced = sum(1 for r in tail if r.trace is not None)
    tracer = live.tracer
    return {
        "users": scenario.users,
        "sim_seconds": scenario.duration,
        "completed_requests": len(completed),
        "streamed_observations": live.pipeline.cumulative["e2e"].count,
        "quantiles": quantiles,
        "tail": {
            "true_p99.9_seconds": true_p999,
            "requests_above": len(tail),
            "retained_as_traces": tail_traced,
            "retention": tail_traced / len(tail) if tail else 1.0,
        },
        "traces": {
            "stride": tracer.stride,
            "base": tracer.base_retained,
            "promoted": tracer.promoted,
            "discarded": tracer.discarded,
        },
    }


def bench_detection(quick: bool) -> dict:
    """First defensive migration: live latency trigger vs post-hoc.

    Same scenario, same defense parameters; only the episode source
    differs (``slo.violation`` topics vs harvested utilization spans).
    """
    from repro.experiments.configs import PRIVATE_CLOUD
    from repro.experiments.defense import run_rubbos_with_defense

    scenario = dataclasses.replace(
        PRIVATE_CLOUD,
        name="bench-live-defense",
        duration=20.0 if quick else 45.0,
    )
    out = {}
    for trigger in ("utilization", "latency"):
        run, defense, _ = run_rubbos_with_defense(
            scenario, None, 8, trigger=trigger
        )
        out[trigger] = {
            "migrations": len(defense.migrations),
            "first_migration": (
                defense.migrations[0].time if defense.migrations else None
            ),
        }
        if trigger == "latency" and run.obs is not None:
            detector = run.obs.detector
            out[trigger]["violations"] = len(detector.violations)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: 2k users x 10 sim-s, in-process overhead runs",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless accuracy <= 5%% rel err, tail "
             "retention >= 99%%, telemetry overhead within budget of "
             "the traced run, and the latency trigger migrates no "
             "later than the utilization baseline",
    )
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument(
        "--worker", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument("--mode", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        print(json.dumps(run_once(args.mode or "plain", args.quick)))
        return 0

    report = {
        "kind": "live-telemetry-benchmark",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }

    accuracy = bench_accuracy(args.quick)
    report["accuracy"] = accuracy
    print(
        f"accuracy ({accuracy['completed_requests']} requests, "
        f"stride 1/{accuracy['traces']['stride']}):"
    )
    for name, cell in accuracy["quantiles"].items():
        print(
            f"  {name:6s} exact {cell['exact'] * 1e3:8.1f}ms  "
            f"streaming {cell['streaming'] * 1e3:8.1f}ms  "
            f"rel err {cell['relative_error'] * 100:.2f}%"
        )
    tail = accuracy["tail"]
    print(
        f"  tail   {tail['retained_as_traces']}/{tail['requests_above']} "
        f"requests above true p99.9 retained as full traces "
        f"({tail['retention'] * 100:.1f}%)"
    )

    report["overhead"] = {}
    for mode in ("plain", "traced", "telemetry"):
        if args.quick:
            result = run_once(mode, True)
        else:
            result = measure_fresh(mode, False, args.repeat)
        report["overhead"][mode] = result
        print(
            f"overhead {mode:9s} {result['wall_seconds']:.3f}s wall "
            f"({result['completed_requests']} requests)"
        )
    traced = report["overhead"]["traced"]["wall_seconds"]
    telemetry = report["overhead"]["telemetry"]["wall_seconds"]
    plain = report["overhead"]["plain"]["wall_seconds"]
    report["overhead"]["telemetry_vs_traced"] = telemetry / traced - 1.0
    report["overhead"]["telemetry_vs_plain"] = telemetry / plain - 1.0
    print(
        f"overhead telemetry vs traced "
        f"{report['overhead']['telemetry_vs_traced'] * 100:+.1f}%, "
        f"vs plain "
        f"{report['overhead']['telemetry_vs_plain'] * 100:+.1f}%"
    )

    detection = bench_detection(args.quick)
    report["detection"] = detection
    for trigger, cell in detection.items():
        first = cell["first_migration"]
        print(
            f"detection {trigger:12s} "
            f"{cell['migrations']} migrations, first at "
            + (f"{first:.2f}s" if first is not None else "never")
        )

    out = args.out or os.path.join(
        RESULTS_DIR,
        "BENCH_live_quick.json" if args.quick else "BENCH_live.json",
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

        for name in ("p99", "p99.9"):
            err = accuracy["quantiles"][name]["relative_error"]
            gate(
                err <= ACCURACY_RELATIVE_ERROR,
                f"{name} streaming rel err {err * 100:.2f}% <= "
                f"{ACCURACY_RELATIVE_ERROR * 100:.0f}%",
                f"{name} streaming rel err {err * 100:.2f}% > "
                f"{ACCURACY_RELATIVE_ERROR * 100:.0f}%",
            )
        retention = tail["retention"]
        gate(
            retention >= RETENTION_FLOOR,
            f"tail retention {retention * 100:.1f}% >= "
            f"{RETENTION_FLOOR * 100:.0f}%",
            f"tail retention {retention * 100:.1f}% < "
            f"{RETENTION_FLOOR * 100:.0f}% at 1/64 base sampling",
        )
        budget = OVERHEAD_VS_TRACED["quick" if args.quick else "full"]
        overhead = report["overhead"]["telemetry_vs_traced"]
        gate(
            overhead <= budget,
            f"telemetry overhead vs traced {overhead * 100:+.1f}% <= "
            f"{budget * 100:.0f}%",
            f"telemetry run {overhead * 100:+.1f}% slower than traced "
            f"(budget {budget * 100:.0f}%)",
        )
        live_first = detection["latency"]["first_migration"]
        posthoc_first = detection["utilization"]["first_migration"]
        gate(
            live_first is not None
            and posthoc_first is not None
            and live_first <= posthoc_first,
            f"latency trigger migrated at {live_first}s, no later than "
            f"utilization baseline at {posthoc_first}s",
            f"latency trigger ({live_first}) later than utilization "
            f"baseline ({posthoc_first})",
        )
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
