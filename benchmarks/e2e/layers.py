"""Attribute a cProfile run's self time and calls to simulator layers.

A layer is a set of ``repro`` modules.  Every profiled function defined
in ``repro`` is charged to its module's layer.  Everything else (builtin
methods, the standard library, numpy, the benchmark's own wrappers) is
charged to the layer of the ``repro`` code that called it, split by
pstats' per-caller timings and followed up the call graph through any
chain of non-``repro`` callers.  Explicit ``gc.collect`` calls are the
``gc`` layer.  The layers therefore partition the profile's total self
time exactly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Optional, Tuple

#: (path fragment under ``repro/``, layer), first match wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim/core.py", "sim.core"),
    ("sim/psserver.py", "sim.psserver"),
    ("sim/resources.py", "sim.resources"),
    ("sim/hybrid.py", "sim.hybrid"),
    ("sim/sharded.py", "sim.sharded"),
    ("ntier/", "ntier"),
    ("net/", "net"),
    ("obs/", "obs"),
    ("workload/", "workload"),
    ("monitoring/", "monitoring"),
    ("core/", "attack"),
    ("hardware/", "attack"),
    ("cloud/", "attack"),
    ("experiments/", "build"),
    ("analysis/", "build"),
)

#: Functions charged against their module's layer.  The sharded
#: coordinator lives in ``experiments`` but only waits on the shard
#: workers, which is sharded-kernel time, not world building.
FUNCTION_LAYERS: Dict[Tuple[str, str], str] = {
    ("experiments/datacenter.py", "run_datacenter"): "sim.sharded",
}

LAYERS: Tuple[str, ...] = (
    "sim.core",
    "sim.psserver",
    "sim.resources",
    "sim.hybrid",
    "sim.sharded",
    "ntier",
    "net",
    "obs",
    "workload",
    "monitoring",
    "attack",
    "build",
    "gc",
    "other",
)

_GC_COLLECT = "<built-in method gc.collect>"

#: pstats function key: (filename, line, function name).
Func = Tuple[str, int, str]


def layer_of(func: Func) -> Optional[str]:
    """The layer owning ``func``, or None when its caller decides."""
    filename, _, name = func
    if filename == "~" and name == _GC_COLLECT:
        return "gc"
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return None
    rel = path[marker + len("/repro/") :]
    override = FUNCTION_LAYERS.get((rel, name))
    if override is not None:
        return override
    for fragment, layer in MODULE_LAYERS:
        if rel.startswith(fragment):
            return layer
    return "other"


def attribute(stats: dict) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` from a pstats ``stats`` dict.

    ``stats`` maps each function to ``(cc, nc, tt, ct, callers)``;
    ``callers`` maps each caller to ``(nc, cc, tt, ct)`` of the calls it
    made.  Self time is split among callers by ``tt``, primitive calls
    by ``cc``.
    """
    time_owner = _owners(stats, lambda edge: edge[2])
    call_owner = _owners(stats, lambda edge: edge[1])
    out = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for func, (cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, share in time_owner(func).items():
            out[layer]["self_s"] += tt * share
        for layer, share in call_owner(func).items():
            out[layer]["calls"] += cc * share
    for entry in out.values():
        entry["calls"] = round(entry["calls"])
    return out


def _owners(stats: dict, weight):
    """Memoized ``func -> {layer: share}`` for one caller weighting."""
    memo: Dict[Func, Dict[str, float]] = {}

    def owner(func: Func, active: frozenset) -> Dict[str, float]:
        cached = memo.get(func)
        if cached is not None:
            return cached
        layer = layer_of(func)
        if layer is not None:
            result = {layer: 1.0}
        elif func in active:
            # A cycle of non-repro functions with no repro caller yet.
            return {"other": 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            result = _split(
                (
                    (weight(edge), owner(caller, active | {func}))
                    for caller, edge in callers.items()
                ),
            )
        memo[func] = result
        return result

    return lambda func: owner(func, frozenset())


def _split(
    weighted: Iterable[Tuple[float, Dict[str, float]]]
) -> Dict[str, float]:
    parts = [(w, shares) for w, shares in weighted]
    total = sum(w for w, _ in parts)
    if total <= 0:
        # No callers (the profile's root) or only zero-time edges:
        # split evenly among callers, or charge "other".
        if not parts:
            return {"other": 1.0}
        parts = [(1.0, shares) for _, shares in parts]
        total = float(len(parts))
    out: Dict[str, float] = defaultdict(float)
    for w, shares in parts:
        for layer, share in shares.items():
            out[layer] += share * w / total
    return dict(out)
