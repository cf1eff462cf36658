"""Shared fixtures for the fixed-seed golden determinism tests.

The kernel and span-storage rewrites are behavior-preserving by
contract; this module pins that contract down.  It defines small
fig2/fig9-scale scenarios and canonical snapshot encoders (request CSV
text, percentile-sketch JSON, attribution render) whose outputs are
committed under ``tests/golden/``.  The goldens were generated from the
pre-rewrite kernel, so ``tests/test_determinism.py`` comparing against
them byte-for-byte proves the rewrites changed nothing observable.

Regenerate (only when a *deliberate* behavior change lands) with::

    PYTHONPATH=src:. python tests/golden/regenerate.py
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from dataclasses import replace

import numpy as np

from repro.analysis.attribution import attribute_run
from repro.analysis.export import (
    requests_to_rows,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.experiments.configs import PRIVATE_CLOUD, NetworkConfig
from repro.experiments.runner import run_rubbos
from repro.sim.hybrid import HybridConfig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

TIERS = ("apache", "tomcat", "mysql")

#: Fig 2 at small N: closed-loop RUBBoS population under the default
#: MemCA lock attack, private-cloud host, fixed seed.
GOLDEN_FIG2 = replace(
    PRIVATE_CLOUD, name="golden-fig2", users=1500, duration=8.0, warmup=2.0
)

#: Fig 9 at small N: same shape, different seed and a denser burst
#: train so the attribution join sees several ON windows.
GOLDEN_FIG9 = replace(
    PRIVATE_CLOUD,
    name="golden-fig9",
    users=2000,
    duration=10.0,
    warmup=2.0,
    seed=23,
    attack=replace(PRIVATE_CLOUD.attack, length=0.4, interval=1.5),
)


#: The network family's golden: every RPC routed through the finite
#: queue chains, under the NIC ring-saturation attack — pins the
#: chain serialization, drop, and link-RTO event ordering.
GOLDEN_NET = replace(
    PRIVATE_CLOUD,
    name="golden-net",
    users=1200,
    duration=8.0,
    warmup=2.0,
    seed=31,
    network=NetworkConfig(),
    attack=replace(
        PRIVATE_CLOUD.attack, program="nic", length=0.4, interval=1.5
    ),
)


#: The hybrid family's golden: 100k users, 2% sampled as DES clients,
#: the rest a fluid bulk coupled into the tiers — pins ``run_rubbos``'s
#: fluid path (engine wiring, attack-edge re-steps, background load)
#: through its effect on the discrete requests.
GOLDEN_HYBRID = replace(
    PRIVATE_CLOUD.with_users(100_000),
    name="golden-hybrid",
    duration=8.0,
    warmup=2.0,
    seed=37,
)
GOLDEN_HYBRID_CONFIG = HybridConfig(sample_fraction=0.02)


#: The multi-host family's golden: the 2-host datacenter scenario.
#: Runs through ``run_datacenter`` — ``shards=1`` is the single-process
#: reference (one simulator, LocalChannel cross-host links), and the
#: sharded determinism suite asserts ``shards=2`` reproduces this CSV
#: byte for byte (DESIGN.md §12).
def run_golden_dc(shards: int = 1, **kwargs):
    from repro.experiments.datacenter import DC_2HOST, run_datacenter

    return run_datacenter(DC_2HOST, shards=shards, **kwargs)


#: The hybrid-bulk datacenter golden: dc-8host carries a per-host
#: million-user fluid bulk in every shard worker, so this single CSV
#: pins the whole stack — eight-way chain tiling, replicated remote
#: dispatch, *and* the fluid coupling's effect on the discrete
#: requests (8M bulk users total).
def run_golden_dc8(shards: int = 1, **kwargs):
    from repro.experiments.datacenter import DC_8HOST, run_datacenter

    return run_datacenter(DC_8HOST, shards=shards, **kwargs)


def requests_csv_text(run) -> str:
    """The run's post-warmup request table as canonical CSV text."""
    rows = requests_to_rows(run.client_requests(), tiers=TIERS)
    fields = list(rows[0].keys()) if rows else ["rid"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def sketch_json_text(run) -> str:
    """Exact tail of a run's response times, from its completed log."""
    rts = run.app.completed.column("response_time")
    # Left to right, one += per value: sum() compensates.
    total = 0.0
    for rt in rts.tolist():
        total += rt
    payload = {
        "count": len(rts),
        "total": total,
        "min": float(rts.min()),
        "max": float(rts.max()),
        "percentiles": {
            str(q): float(np.percentile(rts, q))
            for q in (50.0, 90.0, 95.0, 99.0, 99.9)
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def attribution_text(run) -> str:
    """The rendered root-cause attribution report for the run."""
    return attribute_run(run, threshold=0.5).render() + "\n"


def span_exports_text(run) -> str:
    """sha256 digests of a traced run's two span exports.

    Exports every finished request, as ``python -m repro trace`` does,
    to the span-tree JSONL and the Chrome ``trace_event`` JSON; one
    ``sha256sum``-style line per file.  The digests pin every span's
    kind, name and times, and its attributes' keys, order and value
    types (``1`` and ``1.0`` serialize differently).
    """
    finished = run.app.completed + run.app.failed
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in (
            ("spans.jsonl", write_spans_jsonl),
            ("trace.json", write_chrome_trace),
        ):
            path = os.path.join(tmp, name)
            write(path, finished)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {name}\n")
    return "".join(lines)


def run_golden_fig2(tracing: bool = False):
    return run_rubbos(GOLDEN_FIG2, tracing=tracing)


def run_golden_fig9(tracing: bool = True, **kwargs):
    return run_rubbos(GOLDEN_FIG9, tracing=tracing, **kwargs)


def run_golden_net(tracing: bool = False, **kwargs):
    return run_rubbos(GOLDEN_NET, tracing=tracing, **kwargs)


def run_golden_hybrid(**kwargs):
    return run_rubbos(GOLDEN_HYBRID, hybrid=GOLDEN_HYBRID_CONFIG, **kwargs)


#: golden file name -> callable producing its current text.
def snapshots() -> dict:
    fig2 = run_golden_fig2()
    fig9 = run_golden_fig9()
    net = run_golden_net()
    net_traced = run_golden_net(tracing=True)
    hybrid = run_golden_hybrid()
    dc = run_golden_dc()
    dc8 = run_golden_dc8()
    return {
        "fig2_requests.csv": requests_csv_text(fig2),
        "fig9_requests.csv": requests_csv_text(fig9),
        "fig9_sketch.json": sketch_json_text(fig9),
        "fig9_attribution.txt": attribution_text(fig9),
        "fig9_spans.sha256": span_exports_text(fig9),
        "net_requests.csv": requests_csv_text(net),
        "net_spans.sha256": span_exports_text(net_traced),
        "hybrid_requests.csv": requests_csv_text(hybrid),
        "dc2_requests.csv": requests_csv_text(dc),
        "dc8_requests.csv": requests_csv_text(dc8),
    }
