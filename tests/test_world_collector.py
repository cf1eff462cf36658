"""The cyclic collector's discipline around building and running a world.

Every experiment entry point builds its world inside a
:class:`repro.sim.core.WorldCollector`: no collection during the build,
one full sweep on entry only while an earlier ``Simulator`` is alive,
the built world frozen for the run, and the collector's state — enabled
flag and freeze count — restored afterwards, raise or not.
"""

import ast
import gc
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import datacenter, runner
from repro.experiments.ablation import dual_tier_cell
from repro.experiments.baselines import baseline_cell
from repro.experiments.configs import MODEL_3TIER, PRIVATE_CLOUD
from repro.experiments.controller import run_controller
from repro.experiments.datacenter import DC_2HOST, run_datacenter
from repro.experiments.defense import run_rubbos_with_defense
from repro.experiments.overhead import run_overhead_study
from repro.experiments.runner import run_model, run_rubbos
from repro.sim.core import Simulator

SRC = Path(__file__).resolve().parent.parent / "src"

SMALL = replace(PRIVATE_CLOUD, users=300, duration=1.0, warmup=0.0)
SMALL_MODEL = replace(MODEL_3TIER, duration=1.0, warmup=0.0)
SMALL_DC = replace(DC_2HOST, base=replace(DC_2HOST.base, duration=0.5))

#: Entry point -> (call, module and attribute its build goes through).
ENTRIES = {
    "run_rubbos": (lambda: run_rubbos(SMALL), runner, "build_world"),
    "run_model": (
        lambda: run_model(SMALL_MODEL, "attack-finite"),
        runner,
        "OpenLoopGenerator",
    ),
    "run_datacenter": (
        lambda: run_datacenter(SMALL_DC, shards=1),
        datacenter,
        "_build_group",
    ),
    # The experiments that add components through ``run_rubbos``'s
    # ``attach`` hook: one build and one frozen run, like any world.
    "overhead": (
        lambda: run_overhead_study(SMALL, granularities=(0.1, 0.01)),
        runner,
        "build_world",
    ),
    "baseline": (
        lambda: baseline_cell((SMALL, "pulsating")),
        runner,
        "build_world",
    ),
    "defense": (
        lambda: run_rubbos_with_defense(SMALL, 0.5, 1),
        runner,
        "build_world",
    ),
    "controller": (lambda: run_controller(SMALL), runner, "build_world"),
    "dual_tier": (
        lambda: dual_tier_cell(
            ((("mysql", 1.0, 0.0), ("tomcat", 1.0, 0.5)), "both", 1.0)
        ),
        runner,
        "build_world",
    ),
    "monitor": (
        lambda: main(["monitor", "fig2", "--duration", "1", "--users", "50"]),
        runner,
        "build_world",
    ),
}

#: The only ``<simulator>.run(until=...)`` calls the package may make:
#: :meth:`WorldCollector.run`'s kernel and the forked shard worker,
#: whose collector stays off for life.
OWN_RUN_LOOPS = {"sim/core.py", "sim/sharded.py"}


#: Only meaningful with the collector on: off, there is nothing to sweep.
collector_on = pytest.mark.parametrize(
    "gc_state", [True], ids=["gc-on"], indirect=True
)


def _requests(run):
    return [
        (r.rid, r.page, r.t_first_attempt, r.t_done, r.attempts)
        for r in run.app.completed
    ]


#: Run in a fresh process: the collections between each ``run_rubbos``
#: entry and its first event loop, first with no earlier world alive,
#: then with the first run still held.
_PROBE = """
import gc, json
from dataclasses import replace
from repro.experiments.configs import PRIVATE_CLOUD
from repro.experiments.runner import run_rubbos
from repro.sim.core import Simulator

scenario = replace(PRIVATE_CLOUD, users=1000, duration=0.5, warmup=0.0)
log, runs = [], []
building = [False]

def on_gc(phase, info):
    if phase == "stop" and building[0]:
        log[-1].append(info["generation"])

original = Simulator.run

def spy(sim, until=None):
    building[0] = False
    return original(sim, until)

Simulator.run = spy
gc.callbacks.append(on_gc)
for _ in range(2):
    log.append([])
    building[0] = True
    runs.append(run_rubbos(scenario))
print(json.dumps(log))
"""


class TestCollections:
    def test_no_collection_before_the_first_event_loop(self):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        out = subprocess.run(
            [sys.executable, "-c", _PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        first, second = json.loads(out.stdout.splitlines()[-1])
        # No earlier world: the build runs with the collector off and
        # the world is frozen without a sweep.
        assert first == []
        # The first run is still held: one full sweep on entry, none
        # during the build.
        assert second == [2]

    @collector_on
    def test_dropped_world_is_gone_before_the_next_event_loop(
        self, gc_state, monkeypatch
    ):
        earlier = []
        alive = []
        original = Simulator.run

        def spy(sim, until=None):
            alive.append([ref() is not None for ref in earlier])
            earlier.append(weakref.ref(sim))
            return original(sim, until)

        monkeypatch.setattr(Simulator, "run", spy)
        for seed in (1, 2, 3):
            run_rubbos(replace(SMALL, seed=seed))
        assert alive == [[], [False], [False, False]]

    @collector_on
    def test_retained_run_stays_intact(self, gc_state):
        first = run_rubbos(SMALL)
        before = _requests(first)
        second = run_rubbos(SMALL)
        assert before and _requests(first) == before
        assert _requests(second) == before
        assert first.sim.now == second.sim.now == SMALL.duration

    def test_callers_frozen_set_is_kept(self, gc_state):
        held = [[i] for i in range(100)]
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen >= len(held)
            run_rubbos(SMALL)
            # Frozen objects that die leave the count, so it may only
            # shrink: nothing of the run was frozen on top, and nothing
            # the caller froze was thawed.
            assert 0 < gc.get_freeze_count() <= frozen
            scanned = {id(obj) for obj in gc.get_objects()}
            assert not any(id(obj) in scanned for obj in held)
            assert gc.isenabled() is gc_state
        finally:
            gc.unfreeze()


@pytest.mark.parametrize("entry", sorted(ENTRIES))
class TestStateRestored:
    def test_after_the_run(self, entry, gc_state, monkeypatch):
        call, _, _ = ENTRIES[entry]
        frozen = gc.get_freeze_count()
        during = []
        original = Simulator.run

        def spy(sim, until=None):
            during.append((gc.isenabled(), gc.get_freeze_count() > frozen))
            return original(sim, until)

        monkeypatch.setattr(Simulator, "run", spy)
        call()
        # The collector runs (batched in the kernel) over a frozen
        # world; with it off on entry nothing is touched.
        assert during == [(gc_state, gc_state)]
        assert gc.isenabled() is gc_state
        assert gc.get_freeze_count() == frozen

    def test_when_the_build_raises(self, entry, gc_state, monkeypatch):
        call, module, name = ENTRIES[entry]

        def broken(*args, **kwargs):
            raise ValueError("build failed")

        monkeypatch.setattr(module, name, broken)
        frozen = gc.get_freeze_count()
        with pytest.raises(ValueError, match="build failed"):
            call()
        assert gc.isenabled() is gc_state
        assert gc.get_freeze_count() == frozen

    def test_when_the_run_raises(self, entry, gc_state, monkeypatch):
        call, _, _ = ENTRIES[entry]

        def broken(sim, until=None):
            raise ValueError("run failed")

        monkeypatch.setattr(Simulator, "run", broken)
        frozen = gc.get_freeze_count()
        with pytest.raises(ValueError, match="run failed"):
            call()
        assert gc.isenabled() is gc_state
        assert gc.get_freeze_count() == frozen


def test_no_bare_run_outside_the_collector():
    """Every other world runs through ``WorldCollector.run``."""
    package = SRC / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        if relative in OWN_RUN_LOOPS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run"
                and not node.args
                and any(k.arg == "until" for k in node.keywords)
            ):
                found.append(f"{relative}:{node.lineno}")
    assert found == []
