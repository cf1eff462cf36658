"""Tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from layers import LAYERS, attribute, layer_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SRC = "/x/src/repro/"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- layer bucketing ------------------------------------------------------------


@pytest.mark.parametrize(
    "func, layer",
    [
        ((SRC + "sim/core.py", 1, "_drain"), "sim.core"),
        ((SRC + "sim/psserver.py", 1, "f"), "sim.psserver"),
        ((SRC + "sim/sharded.py", 1, "f"), "sim.sharded"),
        ((SRC + "sim/rng.py", 1, "f"), "other"),
        ((SRC + "ntier/tier.py", 1, "handle"), "ntier"),
        ((SRC + "net/queues.py", 1, "f"), "net"),
        ((SRC + "core/attack.py", 1, "f"), "attack"),
        ((SRC + "cloud/platform.py", 1, "f"), "attack"),
        ((SRC + "hardware/vm.py", 1, "f"), "attack"),
        ((SRC + "experiments/runner.py", 1, "run_rubbos"), "build"),
        ((SRC + "analysis/export.py", 1, "f"), "build"),
        ((SRC + "experiments/datacenter.py", 1, "run_datacenter"),
         "sim.sharded"),
        (("~", 0, "<built-in method gc.collect>"), "gc"),
        (("~", 0, "<built-in method _heapq.heappush>"), None),
        (("/usr/lib/python3.11/heapq.py", 1, "merge"), None),
        ((str(HERE / "sample.py"), 1, "run"), None),
    ],
)
def test_layer_of(func, layer):
    assert layer_of(func) == layer


def _stats(edges, own):
    """pstats-shaped dict from ``{callee: {caller: (cc, tt)}}`` edges
    plus ``{func: (cc, tt)}`` totals for callers-free functions."""
    stats = {}
    for func, callers in edges.items():
        cc = sum(c for c, _ in callers.values())
        tt = sum(t for _, t in callers.values())
        stats[func] = (
            cc,
            cc,
            tt,
            tt,
            {caller: (c, c, t, t) for caller, (c, t) in callers.items()},
        )
    for func, (cc, tt) in own.items():
        stats[func] = (cc, cc, tt, tt, {})
    return stats


def test_builtin_time_goes_to_callers_layer():
    kernel = (SRC + "sim/core.py", 1, "_drain")
    tier = (SRC + "ntier/tier.py", 1, "handle")
    root = (str(HERE / "sample.py"), 1, "main")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    stdlib = ("/usr/lib/python3.11/queue.py", 1, "get")
    read = ("~", 0, "<built-in method posix.read>")
    stats = _stats(
        {
            kernel: {root: (1, 1.0)},
            tier: {kernel: (10, 2.0)},
            push: {kernel: (30, 3.0), tier: (10, 1.0)},
            stdlib: {tier: (4, 0.5)},
            read: {stdlib: (4, 4.0)},
        },
        {root: (1, 0.25)},
    )
    layers = attribute(stats)
    assert layers["sim.core"]["self_s"] == pytest.approx(1.0 + 3.0)
    # The tier's own time, its heappush share, and the builtin read
    # reached only through a stdlib caller.
    assert layers["ntier"]["self_s"] == pytest.approx(2.0 + 1.0 + 0.5 + 4.0)
    assert layers["other"]["self_s"] == pytest.approx(0.25)
    assert layers["sim.core"]["calls"] == 1 + 30
    assert layers["ntier"]["calls"] == 10 + 10 + 4 + 4
    total = sum(entry["self_s"] for entry in layers.values())
    assert total == pytest.approx(sum(s[2] for s in stats.values()))
    assert set(layers) == set(LAYERS)


def test_cycle_of_non_repro_callers_terminates():
    tier = (SRC + "ntier/tier.py", 1, "handle")
    a = ("/usr/lib/python3.11/a.py", 1, "a")
    b = ("/usr/lib/python3.11/b.py", 1, "b")
    stats = _stats(
        {a: {tier: (1, 1.0), b: (1, 1.0)}, b: {a: (1, 2.0)}},
        {tier: (1, 0.0)},
    )
    layers = attribute(stats)
    total = sum(entry["self_s"] for entry in layers.values())
    assert total == pytest.approx(4.0)
    assert layers["ntier"]["self_s"] > 0


# -- statistics ----------------------------------------------------------------


def test_median_and_quartiles():
    summary = bench.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert summary == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert bench.spread(summary) == pytest.approx(1.0)
    single = bench.summarize([2.0])
    assert single == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert bench.spread(single) == 0.0


def test_compare_verdicts():
    tight = bench.summarize([1.00, 1.01, 1.02, 1.01, 1.00])
    slower = bench.summarize([1.20, 1.21, 1.22, 1.21, 1.20])
    wide = bench.summarize([0.5, 1.0, 1.5, 2.0, 2.5])
    assert bench.verdict(tight, tight, 0.1) == "ok"
    assert bench.verdict(tight, slower, 0.1) == "worse"
    assert bench.verdict(slower, tight, 0.1) == "ok"
    assert bench.verdict(tight, wide, 0.1) == "unresolved"
    assert bench.verdict(wide, tight, 0.1) == "unresolved"


# -- BENCHMARK.json --------------------------------------------------------------


@pytest.fixture(scope="module")
def spec():
    return bench.load_spec()


def test_spec_shape(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [
        m["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for m in spec[group]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        assert UNIT.fullmatch(metric["unit"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.fullmatch(metric["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_carry_why_and_seed(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        workload = WORKLOADS[entry["name"]]
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workload.why
        assert 0 < len(workload.why) <= 200 and "\n" not in workload.why
        assert isinstance(workload.seed, int)
        assert workload.repeats >= 5


def test_end_to_end_metrics_are_reported(spec):
    sample = {key: 1.0 for key in bench.E2E_KEYS}
    reported = bench.end_to_end([sample, dict(sample)])
    assert {m["name"] for m in spec["end_to_end"]} == set(reported)


# -- digests on tiny runs ----------------------------------------------------------

TINY = {
    "rubbos-300": """
        from repro.experiments.configs import PRIVATE_CLOUD
        from repro.experiments.runner import run_rubbos
        scenario = replace(
            PRIVATE_CLOUD.with_users(300), duration=6.0, warmup=1.0,
            seed=seed,
        )
        return lambda: run_rubbos(scenario)
    """,
    "dc-2host-2shard": """
        from repro.experiments.datacenter import DC_2HOST, run_datacenter
        scenario = replace(DC_2HOST, base=replace(DC_2HOST.base, seed=seed))
        return lambda: run_datacenter(scenario, shards=2)
    """,
}


def _tiny_sample(name: str, traced: bool, workdir: Path) -> dict:
    """One sample of a tiny workload registered only in a child process."""
    body = textwrap.indent(textwrap.dedent(TINY[name]), "    ")
    code = (
        f"import sys\nsys.path.insert(0, {str(HERE)!r})\n"
        "from dataclasses import replace\n"
        "import sample, workloads\n"
        "def build(seed):\n"
        f"{body}\n"
        f"workloads.WORKLOADS[{name!r}] = workloads.Workload("
        f"{name!r}, 23, 5, 'test', build)\n"
        f"sys.exit(sample.main([{name!r}, '23', {'1' if traced else '0'!r}, "
        f"{str(workdir)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env=bench.sample_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_digest_stable_across_repeats_and_tracing(name, tmp_path, spec):
    first = _tiny_sample(name, False, tmp_path / "a")
    second = _tiny_sample(name, False, tmp_path / "b")
    traced = _tiny_sample(name, True, tmp_path / "c")
    for result in (first, second, traced):
        assert result["errors"] == []
        assert bench.diff_digests(first["digest"], result["digest"]) == []
    assert first["digest"]["events"] > 0
    assert first["digest"]["completed"] > 0
    assert first["host"]["kernel_timings"] > 0
    assert (tmp_path / "c" / "trace.jsonl").stat().st_size > 0

    layers = bench.per_layer(traced, [first, second])
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert layers["trace.coverage_gap"] < 0.05
    assert sum(layers[f"{layer}.share"] for layer in LAYERS) == (
        pytest.approx(1.0)
    )
