"""End-to-end benchmark of the simulator: host time, memory, set-up.

Every sample is a fresh ``python`` process (``sample.py``, with
``PYTHONHASHSEED=0``) making one entry call; samples run one at a time.

    # every workload, round-robin, registered repeats; prints each
    # metric as median [q1, q3] n=…; --trace adds one traced sample per
    # workload and prints the per-layer metrics
    PYTHONPATH=src python benchmarks/e2e/bench.py [--trace] [--out FILE]

    # one workload for a fixed time; the last line is one JSON object
    python benchmarks/e2e/bench.py --workload NAME --seed N \\
        --seconds S --trace 0|1

    # A/B: both medians and quartiles per workload and metric
    python benchmarks/e2e/bench.py compare PARENT.json CHANGE.json

A sample fails on an exception, a timeout, a broken request
conservation, or an output digest that differs from the other samples
of the same workload and seed; the differing fields are printed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: Spans of the traced samples of the last ``--trace`` invocation.
TRACE = OUT / "trace.jsonl"
sys.path.insert(0, str(HERE))

from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: A contract run must end within 180 s; no sample may outlive that.
SAMPLE_TIMEOUT_S = 150.0

E2E_KEYS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics -----------------------------------------------------------------


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def spread(summary: Dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    if summary["median"] == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


# -- samples --------------------------------------------------------------------


def sample_env() -> Dict[str, str]:
    """Environment of a sample process: fixed hash seed, ``src`` first."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


class Sampler:
    """Runs samples one at a time and checks their outputs agree."""

    def __init__(self) -> None:
        self.count = 0
        #: (workload, seed) -> digest of the first good sample.
        self.digests: Dict[tuple, dict] = {}

    def run(
        self, name: str, seed: int, traced: bool, timeout: float
    ) -> Dict[str, Any]:
        """One sample; a failed one carries ``error``."""
        self.count += 1
        workdir = OUT / "tmp" / f"{os.getpid()}-{self.count}"
        cmd = [
            sys.executable,
            str(HERE / "sample.py"),
            name,
            str(seed),
            "1" if traced else "0",
            str(workdir),
        ]
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            env=sample_env(),
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            result = {"error": f"timed out after {timeout:.0f} s"}
        else:
            result = _parse(proc.returncode, stdout, stderr)
        result["duration_s"] = time.perf_counter() - started
        if traced and "error" not in result:
            with open(workdir / "trace.jsonl") as src, open(TRACE, "a") as dst:
                for line in src:
                    span = json.loads(line)
                    span["workload"] = name
                    dst.write(json.dumps(span) + "\n")
        shutil.rmtree(workdir, ignore_errors=True)
        self._check(name, seed, traced, result)
        return result

    def _check(self, name, seed, traced, result) -> None:
        if "error" in result:
            return
        if result["errors"]:
            result["error"] = "; ".join(result["errors"])
        else:
            first = self.digests.setdefault((name, seed), result["digest"])
            differ = diff_digests(first, result["digest"])
            if differ:
                result["error"] = "digest differs from the first sample: " + (
                    "; ".join(differ)
                )
        if "error" in result:
            kind = "traced" if traced else "untraced"
            print(
                f"FAIL {name} seed {seed} ({kind}): {result['error']}",
                file=sys.stderr,
            )


def _parse(code: int, stdout: str, stderr: str) -> Dict[str, Any]:
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        return {"error": f"exit code {code}: {tail}"}
    return json.loads(lines[-1])


def diff_digests(a: dict, b: dict) -> List[str]:
    """``field: a != b`` for every digest field that differs."""
    return [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]


def good(samples: List[dict]) -> List[dict]:
    return [s for s in samples if "error" not in s]


def end_to_end(samples: List[dict]) -> Dict[str, Dict[str, float]]:
    ok = good(samples)
    return {key: summarize([s[key] for s in ok]) for key in E2E_KEYS} if ok else {}


def per_layer(traced: dict, untraced: List[dict]) -> Dict[str, float]:
    """Every per-layer metric from one traced and the untraced samples."""
    profile = traced["profile"]
    layers = profile["layers"]
    total = sum(entry["self_s"] for entry in layers.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        entry = layers[layer]
        out[f"{layer}.self_s"] = entry["self_s"]
        out[f"{layer}.share"] = entry["self_s"] / total if total else 0.0
        out[f"{layer}.calls"] = entry["calls"]
    events = traced["digest"]["events"]
    wall = statistics.median(s["wall_s"] for s in untraced)
    setup = statistics.median(s["setup_s"] for s in untraced)
    out["sim.core.events"] = events
    out["sim.core.ns_per_event"] = (wall - setup) / events * 1e9
    out.update(traced["counters"])
    out["sim.sharded.messages"] = profile["messages"]
    out["sim.sharded.encode_s"] = profile["encode_s"]
    out["sim.sharded.decode_s"] = profile["decode_s"]
    waits = profile["recv_wait_s"]
    for k in range(2):
        out[f"sim.sharded.recv_wait_s.w{k}"] = waits[k] if k < len(waits) else 0.0
    out["gc.pause_s"] = profile["gc_pause_s"]
    out["gc.collections"] = profile["gc_collections"]
    raw_wall = statistics.median(s["host"]["wall_s"] for s in untraced)
    out["host.wall_raw_s"] = raw_wall
    out["host.speed"] = statistics.median(s["host"]["speed"] for s in untraced)
    out["trace.overhead_x"] = traced["host"]["wall_s"] / raw_wall
    out["trace.coverage_gap"] = max(
        abs(proc["self_sum_s"] / proc["wall_s"] - 1.0)
        for proc in profile["processes"]
    )
    return out


# -- one workload for a fixed time (the benchmark contract) --------------------


def run_timed(args, spec: dict) -> int:
    sampler = Sampler()
    name = args.workload
    seed = args.seed if args.seed is not None else WORKLOADS[name].seed
    started = time.perf_counter()

    def remaining() -> float:
        return min(SAMPLE_TIMEOUT_S, 170.0 - (time.perf_counter() - started))

    samples: List[dict] = []
    if args.trace:
        samples.append(sampler.run(name, seed, False, remaining()))
        samples.append(sampler.run(name, seed, True, remaining()))
        untraced, traced = samples
        metrics = {}
        if "error" not in untraced and "error" not in traced:
            values = per_layer(traced, [untraced])
            metrics = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]
            }
    else:
        # Sample until the next one would overrun the time box.
        while True:
            samples.append(sampler.run(name, seed, False, remaining()))
            elapsed = time.perf_counter() - started
            typical = statistics.median(s["duration_s"] for s in samples)
            if elapsed + typical > args.seconds:
                break
        summary = end_to_end(samples)
        metrics = {
            m["name"]: {"value": summary[m["name"]]["median"], "unit": m["unit"]}
            for m in spec["end_to_end"]
            if m["name"] in summary
        }
    failed = len(samples) - len(good(samples))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(samples),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


# -- every workload (the ledger) ---------------------------------------------------


def environment() -> dict:
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def run_set(args, spec: dict) -> int:
    sampler = Sampler()
    names = list(WORKLOADS)
    repeats = {n: WORKLOADS[n].repeats for n in names}
    seeds = {
        n: args.seed if args.seed is not None else WORKLOADS[n].seed
        for n in names
    }
    report: Dict[str, Any] = {"environment": environment(), "workloads": {}}
    samples: Dict[str, List[dict]] = {n: [] for n in names}
    # Round-robin within each repeat, so box drift hits every workload.
    for rep in range(max(repeats.values())):
        for n in names:
            if rep < repeats[n]:
                samples[n].append(
                    sampler.run(n, seeds[n], False, SAMPLE_TIMEOUT_S)
                )
    traced = {
        n: sampler.run(n, seeds[n], True, SAMPLE_TIMEOUT_S)
        for n in (names if args.trace else [])
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0
    for n in names:
        runs = samples[n] + ([traced[n]] if n in traced else [])
        failed = len(runs) - len(good(runs))
        failures += failed
        entry: Dict[str, Any] = {
            "seed": seeds[n],
            "attempted": len(runs),
            "failed": failed,
            "fail_rate": failed / len(runs),
            "samples": [
                {k: s[k] for k in E2E_KEYS + ("host", "error") if k in s}
                for s in samples[n]
            ],
            "summary": end_to_end(samples[n]),
            "digest": next((s["digest"] for s in good(runs)), None),
        }
        print(f"{n} (seed {seeds[n]})")
        for key, summary in entry["summary"].items():
            print(
                f"  {key:<12} {summary['median']:10.4f} {units[key]:<4} "
                f"[{summary['q1']:.4f}, {summary['q3']:.4f}] n={summary['n']}"
            )
        print(f"  {'fail_rate':<12} {entry['fail_rate']:10.4f} fraction")
        if n in traced and "error" not in traced[n] and good(samples[n]):
            values = per_layer(traced[n], good(samples[n]))
            entry["per_layer"] = values
            for metric, value in values.items():
                print(f"  {metric:<34} {value:14.6g} {layer_units[metric]}")
        report["workloads"][n] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if failures == 0 else 1


# -- A/B comparison ----------------------------------------------------------------


def verdict(parent: dict, change: dict, bound: float) -> str:
    """One metric's A/B verdict.

    "unresolved" when either side's interquartile spread is wider than
    the bound (the runs cannot tell), else "worse" when the change's
    median exceeds the parent's by more than the bound (every metric is
    lower-is-better), else "ok".
    """
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved"
    if change["median"] > parent["median"] * (1.0 + bound):
        return "worse"
    return "ok"


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    """Per workload and metric: both medians, quartiles and a verdict."""
    parent = json.loads(Path(parent_path).read_text())["workloads"]
    change = json.loads(Path(change_path).read_text())["workloads"]
    worse = 0
    for name in [n for n in parent if n in change]:
        a, b = parent[name], change[name]
        same = a["digest"] == b["digest"]
        print(f"{name}: digests {'equal' if same else 'DIFFER'}")
        for d in diff_digests(a["digest"] or {}, b["digest"] or {}):
            print(f"  {d}")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            sa, sb = a["summary"].get(key), b["summary"].get(key)
            if sa is None or sb is None:
                print(f"  {key:<12} missing")
                continue
            bound = metric["bound"]
            result = verdict(sa, sb, bound)
            worse += result == "worse"
            change_pct = (sb["median"] / sa["median"] - 1.0) * 100.0
            print(
                f"  {key:<12} {sa['median']:.4f} [{sa['q1']:.4f}, "
                f"{sa['q3']:.4f}] -> {sb['median']:.4f} [{sb['q1']:.4f}, "
                f"{sb['q3']:.4f}] {metric['unit']:<3} {change_pct:+6.1f}% "
                f"(bound {bound:.0%}) {result}"
            )
    return 1 if worse else 0


# -- entry point ---------------------------------------------------------------


def main(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"bench.py: no simulator sources under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench.py compare PARENT.json CHANGE.json",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the full set's results here")
    args = parser.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        TRACE.unlink(missing_ok=True)
    if args.workload:
        return run_timed(args, spec)
    return run_set(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
