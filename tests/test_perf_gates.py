"""Wall-clock perf gates (opt-in: ``pytest --perf``).

Every test here is marked ``perf`` and parametrized ``quick``/``full``::

    pytest --perf -m perf -k quick tests/test_perf_gates.py   # CI
    pytest --perf -m perf -k full tests/

The quick legs run on every CI push as gross-regression tripwires sized
for shared runners; the full legs carry the real budgets and run
locally.  The second command also runs the full-scale twins of the
deterministic gates (exact event counts, shard identity, sketch
accuracy, hybrid convergence), which sit beside their tier-1 quick legs
as ``[full]`` params marked ``perf``.  Wall trends belong to the
end-to-end benchmark (``benchmarks/e2e``); the bounds here are absolute
budgets and speedup floors.

Every timed run executes in a fresh python process (:func:`run_fresh`):
state retained from an earlier in-process run — a ~100 MB object graph
the allocator and GC keep walking — inflates later wall times by
15-25%.  Alternatives run round-robin, so a shift in host speed during
a measurement hits them alike.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from typing import Callable, Dict, List

import pytest

from repro.experiments.configs import PRIVATE_CLOUD
from repro.experiments.datacenter import DATACENTERS, run_datacenter
from repro.experiments.runner import run_rubbos
from repro.experiments.summary import summarize_rubbos
from repro.obs import TelemetryConfig
from repro.sim import HybridConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.perf

SCALES = ("quick", "full")


def run_fresh(
    fn: Callable[..., dict], repeat: int = 1, **variants: dict
) -> Dict[str, List[dict]]:
    """Call ``fn(**kwargs)`` for each variant in fresh python processes.

    ``fn`` is a module-level function of this module returning a JSON
    dict.  The variants run round-robin, ``repeat`` rounds; the result
    maps each variant's label to its results in round order.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(REPO, "src"), REPO,
                      env.get("PYTHONPATH")))
    )
    code = (
        "import json, sys\n"
        f"from tests.test_perf_gates import {fn.__name__} as fn\n"
        "print(json.dumps(fn(**json.loads(sys.argv[1]))))"
    )
    results: Dict[str, List[dict]] = {label: [] for label in variants}
    for _ in range(repeat):
        for label, kwargs in variants.items():
            out = subprocess.run(
                [sys.executable, "-c", code, json.dumps(kwargs)],
                env=env, check=True, capture_output=True, text=True,
            )
            results[label].append(json.loads(out.stdout.splitlines()[-1]))
    return results


def fastest(results: List[dict]) -> dict:
    """The minimum-wall result: the noise-rejecting throughput statistic."""
    return min(results, key=lambda r: r["wall"])


# -- timed runs (each called inside a fresh process) ---------------------


def fig9_run(users: int, duration: float, mode: str) -> dict:
    """The private-cloud MemCA scenario, no warmup, one tracing mode."""
    scenario = replace(
        PRIVATE_CLOUD, users=users, duration=duration, warmup=0.0
    )
    tracing = {
        "plain": False, "traced": True, "telemetry": TelemetryConfig()
    }[mode]
    t0 = time.perf_counter()
    run = run_rubbos(scenario, tracing=tracing)
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "completed": len(run.app.completed),
        "events": run.obs.kernel.events_dispatched if run.obs else None,
    }


def scaled_run(users: int, duration: float, fraction: float = 0.0) -> dict:
    """Private cloud co-scaled to ``users``; hybrid when ``fraction``."""
    scenario = replace(PRIVATE_CLOUD.with_users(users), duration=duration)
    hybrid = HybridConfig(sample_fraction=fraction) if fraction else None
    t0 = time.perf_counter()
    summarize_rubbos(run_rubbos(scenario, hybrid=hybrid))
    return {"wall": time.perf_counter() - t0}


def datacenter_run(name: str, shards: int) -> dict:
    t0 = time.perf_counter()
    run_datacenter(DATACENTERS[name], shards=shards)
    return {"wall": time.perf_counter() - t0}


# -- kernel ---------------------------------------------------------------

#: Kernel wall budgets in seconds.  Full: 10k users x 60 s, min over 3
#: runs; traced 6.5 s is >= 3x over the 19.462 s pre-optimization
#: kernel.  Quick: 2k users x 10 s, one run, ~8x headroom over a
#: healthy run (0.48 s traced / 0.37 s untraced when set) — a tripwire.
KERNEL_WALLS = {
    "quick": dict(users=2000, duration=10.0, repeat=1,
                  budgets={"plain": 3.0, "traced": 4.0}),
    "full": dict(users=10000, duration=60.0, repeat=3,
                 budgets={"plain": 4.5, "traced": 6.5}),
}


@pytest.mark.parametrize("scale", SCALES)
def test_kernel_wall_budget(scale):
    shape = KERNEL_WALLS[scale]
    runs = run_fresh(
        fig9_run, shape["repeat"],
        **{mode: dict(users=shape["users"], duration=shape["duration"],
                      mode=mode)
           for mode in shape["budgets"]},
    )
    walls = {mode: fastest(runs[mode])["wall"] for mode in runs}
    print(f"kernel {scale}: " + ", ".join(
        f"{mode} {wall:.2f}s <= {shape['budgets'][mode]}s"
        for mode, wall in walls.items()
    ))
    for mode, budget in shape["budgets"].items():
        assert walls[mode] <= budget, mode


#: Traced kernel throughput references: the last committed kernel
#: bench records before the perf ledgers merged into ``benchmarks/e2e``
#: (quick 74,949 events in 0.4983 s, full 868,497 events in 7.765 s).
#: Events and completions must match exactly; events per wall second
#: may drop at most ``MAX_THROUGHPUT_REGRESSION``.
KERNEL_THROUGHPUT = {
    "quick": dict(users=2000, duration=10.0, repeat=3, events=74_949,
                  completed=3_801, rate=74_949 / 0.49830647199996747),
    "full": dict(users=10000, duration=60.0, repeat=2, events=868_497,
                 completed=39_857, rate=868_497 / 7.765),
}
MAX_THROUGHPUT_REGRESSION = 0.30


@pytest.mark.parametrize("scale", SCALES)
def test_kernel_throughput(scale):
    shape = KERNEL_THROUGHPUT[scale]
    best = fastest(run_fresh(
        fig9_run, shape["repeat"],
        traced=dict(users=shape["users"], duration=shape["duration"],
                    mode="traced"),
    )["traced"])
    rate = best["events"] / best["wall"]
    floor = shape["rate"] * (1.0 - MAX_THROUGHPUT_REGRESSION)
    print(f"kernel throughput {scale}: {rate:,.0f} events/s "
          f"(floor {floor:,.0f})")
    assert best["completed"] == shape["completed"]
    assert best["events"] == shape["events"]
    assert rate >= floor


# -- live telemetry -------------------------------------------------------

#: The default live config (windowed sketches, sampled + promoted
#: retention) against keep-all tracing, min over 3 round-robin rounds.
#: Full: the private-cloud scenario's 2,600 users x 60 s, 3%.  Quick:
#: 2k users x 10 s sits nearer the noise floor, so a 20% tripwire.
TELEMETRY_OVERHEAD = {
    "quick": dict(users=2000, duration=10.0, budget=0.20),
    "full": dict(users=2600, duration=60.0, budget=0.03),
}


@pytest.mark.parametrize("scale", SCALES)
def test_telemetry_overhead_vs_keep_all_tracing(scale):
    shape = TELEMETRY_OVERHEAD[scale]
    runs = run_fresh(
        fig9_run, 3,
        **{mode: dict(users=shape["users"], duration=shape["duration"],
                      mode=mode)
           for mode in ("traced", "telemetry")},
    )
    overhead = (
        fastest(runs["telemetry"])["wall"] / fastest(runs["traced"])["wall"]
        - 1.0
    )
    print(f"telemetry overhead {scale}: {overhead:+.1%} "
          f"(budget {shape['budget']:.0%})")
    assert overhead <= shape["budget"]


# -- hybrid fluid/DES -----------------------------------------------------

#: Hybrid wall against full DES extrapolated linearly in users from a
#: population the kernel can finish (generous to the kernel: its
#: calendar queue degrades superlinearly at 1M-user event densities).
HYBRID_SCALE = {
    "quick": dict(users=100_000, duration=12.0, fraction=0.01,
                  base_users=4_000, floor=8.0),
    "full": dict(users=1_000_000, duration=60.0, fraction=0.0026,
                 base_users=20_000, floor=50.0),
}


@pytest.mark.parametrize("scale", SCALES)
def test_hybrid_scale_speedup(scale):
    shape = HYBRID_SCALE[scale]
    runs = run_fresh(
        scaled_run,
        base=dict(users=shape["base_users"], duration=shape["duration"]),
        hybrid=dict(users=shape["users"], duration=shape["duration"],
                    fraction=shape["fraction"]),
    )
    extrapolated = (
        runs["base"][0]["wall"] * shape["users"] / shape["base_users"]
    )
    speedup = extrapolated / runs["hybrid"][0]["wall"]
    print(f"hybrid {scale}: {speedup:.0f}x vs extrapolated full DES "
          f"(floor {shape['floor']:g}x)")
    assert speedup >= shape["floor"]


# -- sharded kernel -------------------------------------------------------

#: Single-process wall over sharded wall at ``min(hosts, cores)``
#: workers, median of 3 interleaved pairs.  Full: dc-4host, whose
#: 2-worker event-weighted groups measured 1.46-1.61x on a 2-core
#: x86_64 VM; 1.3x keeps a x0.88 margin for speed drift.  Quick:
#: dc-2host finishes in well under a second, so spawn and window
#: exchange dominate — a 5x-slowdown tripwire, not a speedup claim.
SHARD_SPEEDUP = {"quick": ("dc-2host", 0.2), "full": ("dc-4host", 1.3)}


@pytest.mark.parametrize("scale", SCALES)
def test_sharded_parallel_speedup(scale):
    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    )
    if cores < 2:
        pytest.skip(f"parallel speedup needs >= 2 cores; this box has "
                    f"{cores}")
    name, floor = SHARD_SPEEDUP[scale]
    shards = min(len(DATACENTERS[name].shards), cores)
    runs = run_fresh(
        datacenter_run, 3,
        single=dict(name=name, shards=1),
        sharded=dict(name=name, shards=shards),
    )
    ratios = sorted(
        single["wall"] / sharded["wall"]
        for single, sharded in zip(runs["single"], runs["sharded"])
    )
    speedup = ratios[len(ratios) // 2]
    print(f"{name} {scale}: {speedup:.2f}x at {shards} workers "
          f"(floor {floor:g}x)")
    assert speedup >= floor
