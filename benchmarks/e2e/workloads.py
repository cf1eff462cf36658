"""The benchmark's workloads: one registry shared by the driver and the
sample process.

Each workload is one batch run of the simulator: a closed-loop RUBBoS
population (7 s think time) inside the simulated system, one entry call
(``run_rubbos`` / ``run_datacenter``) per host process.  ``build(seed)``
returns a zero-argument thunk making that entry call; the seed replaces
the scenario's registered seed through ``dataclasses.replace``, so the
same seed always simulates the same inputs.

This module imports nothing from ``repro`` at import time: the driver
reads names, seeds and repeat counts without paying for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict


@dataclass(frozen=True)
class Workload:
    name: str
    #: Registered seed, used unless ``--seed`` overrides it.
    seed: int
    #: Samples per workload in one full set (``bench.py`` without
    #: ``--workload``); sized so every median rests on at least five.
    repeats: int
    #: Why the benchmark carries this workload (mirrored in
    #: BENCHMARK.json and README.md).
    why: str
    build: Callable[[int], Callable[[], Any]]


def _fig9(seed: int, tracing: bool) -> Callable[[], Any]:
    from repro.experiments.configs import PRIVATE_CLOUD
    from repro.experiments.runner import run_rubbos

    scenario = replace(
        PRIVATE_CLOUD, users=10000, duration=60.0, warmup=0.0, seed=seed
    )
    return lambda: run_rubbos(scenario, tracing=tracing)


def _hybrid(seed: int) -> Callable[[], Any]:
    from repro.experiments.configs import PRIVATE_CLOUD
    from repro.experiments.runner import run_rubbos
    from repro.sim.hybrid import HybridConfig

    scenario = replace(PRIVATE_CLOUD.with_users(1_000_000), seed=seed)
    hybrid = HybridConfig(sample_fraction=0.0026)
    return lambda: run_rubbos(scenario, hybrid=hybrid)


def _stealth(seed: int) -> Callable[[], Any]:
    from repro.experiments.configs import STEALTH_DUAL
    from repro.experiments.runner import run_rubbos

    scenario = replace(STEALTH_DUAL, duration=120.0, seed=seed)
    return lambda: run_rubbos(scenario)


def _datacenter(seed: int) -> Callable[[], Any]:
    from repro.experiments.datacenter import DC_4HOST, run_datacenter

    scenario = replace(
        DC_4HOST, base=replace(DC_4HOST.base, duration=4.0, seed=seed)
    )
    return lambda: run_datacenter(scenario, shards=2)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig9-10k",
            seed=7,
            repeats=5,
            why="canonical kernel run, 10k users x 60 s: kernel, PS server "
            "and tiers only; bypasses net, fluid, obs and shards",
            build=lambda seed: _fig9(seed, tracing=False),
        ),
        Workload(
            "fig9-10k-obs",
            seed=7,
            repeats=5,
            why="fig9-10k with full tracing: an obs change moves this and "
            "leaves fig9-10k unchanged",
            build=lambda seed: _fig9(seed, tracing=True),
        ),
        Workload(
            "hybrid-1m",
            seed=7,
            repeats=9,
            why="1M users, 0.26% sampled: PS server on its non-zero "
            "background-load path, driven by the fluid engine",
            build=_hybrid,
        ),
        Workload(
            "stealth-dual-120s",
            seed=17,
            repeats=5,
            why="the paper's memory-lock plus NIC attack: the only workload "
            "routing RPCs through net queue chains",
            build=_stealth,
        ),
        Workload(
            "dc-4host-2shard",
            seed=29,
            repeats=5,
            why="4-host datacenter over 2 fork workers: the only workload "
            "exercising the sharded kernel and its frame transport",
            build=_datacenter,
        ),
    )
}
