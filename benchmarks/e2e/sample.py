"""One benchmark sample: a fresh process making one entry call.

    python benchmarks/e2e/sample.py WORKLOAD SEED TRACED WORKDIR

``bench.py`` starts this with ``PYTHONHASHSEED=0`` and ``src`` on
``PYTHONPATH``; it prints one JSON object as its last line of output.

Untraced samples carry two wrappers, both installed before any fork:
``Simulator.run`` records when the first simulated event loop starts
(the end of set-up), attaches an event-counting hook when the run has
none and lets the speed meter (``speed.py``) time its reference kernel
from that hook; ``ShardRunner.run`` reports each shard worker's start,
first event loop, peak RSS and kernel timings through a file in
WORKDIR.  Host times are reported raw (``host``) and rescaled to the
reference speed (``wall_s``, ``cpu_s``, ``setup_s``).

Traced samples (TRACED=1) add cProfile around the entry call — and, in
each forked shard worker, from the fork to the end of its
``ShardRunner.run`` — GC pause accounting through ``gc.callbacks``,
timing wrappers on ``FrameCodec.encode``/``decode`` and
``PackedConnection.recv``, and spans written to WORKDIR/trace.jsonl.
"""

from __future__ import annotations

import cProfile
import csv
import gc
import hashlib
import io
import json
import marshal
import math
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LAYERS, attribute  # noqa: E402
from speed import Meter, measure, relative_speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Tier columns of the request CSV, as in the committed goldens.
TIERS = ("apache", "tomcat", "mysql")

perf = time.perf_counter


class Probe:
    """Measurement state of one process; a forked worker starts afresh."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.profile: Optional[cProfile.Profile] = None
        self.root_span: Optional[str] = None
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.born = perf()
        self.first_run: Optional[float] = None
        #: Kernel timings taken just after set-up ends.
        self.setup_kernel_s: List[float] = []
        self.meter = Meter()
        self.spans: List[dict] = []
        #: The open ShardRunner.run span (parent of transport spans).
        self.runner_span: Optional[dict] = None
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self.encode_s = 0.0
        self.decode_s = 0.0
        self.recv_s = 0.0
        self.messages = 0

    # -- spans ------------------------------------------------------------

    def span(
        self, name: str, start: float, end: float, parent: Optional[str]
    ) -> dict:
        record = {
            "id": f"{self.pid}.{len(self.spans)}",
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "pid": self.pid,
        }
        self.spans.append(record)
        return record

    # -- process hooks ------------------------------------------------------

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf()
        else:
            self.gc_pause_s += perf() - self._gc_start
            self.gc_collections += 1

    def forked(self) -> None:
        """In a new shard worker: drop the parent's profile, start ours."""
        if self.profile is not None:
            self.profile.disable()
            self.profile = None
        self._reset()
        if self.traced:
            self.profile = cProfile.Profile()
            self.profile.enable()

    def worker_done(self) -> None:
        """End of a worker's ShardRunner.run: report to the parent."""
        if self.profile is not None:
            self.profile.disable()
        end = perf()
        report: Dict[str, Any] = {
            "pid": self.pid,
            "name": multiprocessing.current_process().name,
            "born": self.born,
            "first_run": self.first_run,
            "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
            "kernel_s": self.meter.samples,
            "setup_kernel_s": self.setup_kernel_s,
        }
        if self.traced:
            worker = self.span("worker", self.born, end, self.root_span)
            if self.first_run is not None:
                self.span("build", self.born, self.first_run, worker["id"])
            self.runner_span["parent"] = worker["id"]
            report.update(
                wall_s=end - self.born,
                gc_pause_s=self.gc_pause_s,
                gc_collections=self.gc_collections,
                encode_s=self.encode_s,
                decode_s=self.decode_s,
                recv_s=self.recv_s,
                messages=self.messages,
                spans=self.spans,
            )
            prof_path = self.workdir / f"worker-{self.pid}.prof"
            self.profile.dump_stats(str(prof_path))
            report["profile"] = prof_path.name
        path = self.workdir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(report))

    # -- wrappers -----------------------------------------------------------

    def install(self) -> None:
        from repro.sim.core import Simulator
        from repro.sim.sharded import EventCounter, ShardRunner

        probe = self
        sim_run = Simulator.run
        runner_run = ShardRunner.run

        def run(sim, until=None):
            start = perf()
            if probe.first_run is None:
                probe.first_run = start
                if not probe.traced:
                    probe.setup_kernel_s = [measure() for _ in range(3)]
            if sim.hooks is None:
                sim.attach_hooks(EventCounter())
            if not probe.traced:
                probe.meter.attach(sim.hooks)
            if not probe.traced or probe.runner_span is not None:
                return sim_run(sim, until)
            try:
                return sim_run(sim, until)
            finally:
                probe.span("sim.run", start, perf(), probe.root_span)

        def shard_run(runner):
            start = perf()
            if probe.traced:
                probe.runner_span = probe.span(
                    "ShardRunner.run", start, start, None
                )
            try:
                return runner_run(runner)
            finally:
                if probe.traced:
                    probe.runner_span["end"] = perf()
                probe.worker_done()

        Simulator.run = run
        ShardRunner.run = shard_run
        os.register_at_fork(after_in_child=self.forked)
        if self.traced:
            self._install_transport_timers()
            gc.callbacks.append(self.on_gc)

    def _install_transport_timers(self) -> None:
        from repro.sim.sharded import FrameCodec, PackedConnection

        probe = self
        encode = FrameCodec.encode
        decode = FrameCodec.decode
        recv = PackedConnection.recv

        def timed_encode(codec, promise, clock, flags, skip, frame):
            start = perf()
            try:
                return encode(codec, promise, clock, flags, skip, frame)
            finally:
                end = perf()
                probe.encode_s += end - start
                probe.messages += len(frame)
                probe.span("encode", start, end, probe.runner_span["id"])

        def timed_decode(codec, buf):
            start = perf()
            try:
                return decode(codec, buf)
            finally:
                end = perf()
                probe.decode_s += end - start
                probe.span("decode", start, end, probe.runner_span["id"])

        def timed_recv(conn):
            start = perf()
            try:
                return recv(conn)
            finally:
                end = perf()
                probe.recv_s += end - start
                probe.span("recv", start, end, probe.runner_span["id"])

        FrameCodec.encode = timed_encode
        FrameCodec.decode = timed_decode
        PackedConnection.recv = timed_recv


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


# -- outputs ------------------------------------------------------------------


def requests_csv_text(requests) -> str:
    """Post-warmup request table as CSV (the goldens' encoding)."""
    from repro.analysis.export import requests_to_rows

    rows = requests_to_rows(requests, tiers=TIERS)
    fields = list(rows[0].keys()) if rows else ["rid"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def digest(run) -> Dict[str, Any]:
    """What must repeat exactly: every speed-only change keeps it."""
    sharded = hasattr(run, "shard_results")
    if sharded:
        events = run.event_count
        completed, failed = run.completed, run.failed
        fluid = [result.fluid for result in run.shard_results]
    else:
        hooks = run.sim.hooks
        events = getattr(hooks, "events_dispatched", None)
        if events is None:
            events = hooks.count
        completed, failed = run.app.completed, run.app.failed
        fluid = (
            None
            if run.fluid is None
            else {"completed": run.fluid.completed, "dropped": run.fluid.dropped}
        )
    csv_text = requests_csv_text(run.client_requests())
    return {
        "events": events,
        "completed": len(completed),
        "failed": len(failed),
        "requests_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "fluid": json.loads(json.dumps(fluid)),
    }


def conservation_errors(run) -> List[str]:
    """Request conservation: started = completed + failed + in flight."""
    errors = []
    if hasattr(run, "shard_results"):
        users = run.scenario.base.users
        tiers = {}
        for result in run.shard_results:
            for tier, stats in result.tier_stats.items():
                tiers.setdefault(tier, [0, 0, 0])
                for i, value in enumerate(stats):
                    tiers[tier][i] += value
        in_tiers = {
            tier: arrivals - completions - drops
            for tier, (arrivals, completions, drops) in tiers.items()
        }
    else:
        population = run.population
        users = population.users
        started = population.total_requests_sent
        in_flight = started - len(run.app.completed) - len(run.app.failed)
        if not 0 <= in_flight <= users:
            errors.append(
                f"started {started} = completed {len(run.app.completed)} + "
                f"failed {len(run.app.failed)} + in flight {in_flight}, "
                f"outside [0, {users}]"
            )
        in_tiers = {
            tier.name: tier.arrivals - tier.completions - tier.drops
            for tier in run.app.tiers
        }
    for tier, inside in in_tiers.items():
        if not 0 <= inside <= users:
            errors.append(f"tier {tier}: {inside} requests left inside")
    return errors


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def counters(run) -> Dict[str, float]:
    """Deterministic per-layer counts of the simulated run."""
    sharded = hasattr(run, "shard_results")
    completed = run.completed if sharded else run.app.completed
    failed = run.failed if sharded else run.app.failed
    rts = sorted(
        r.response_time * 1000.0
        for r in run.client_requests()
        if r.response_time is not None
    )
    out = {
        "ntier.completed": len(completed),
        "ntier.failed": len(failed),
        "ntier.retransmits": sum(r.drops for r in completed)
        + sum(r.drops for r in failed),
        "ntier.p50_ms": _percentile(rts, 50.0),
        "ntier.p99_ms": _percentile(rts, 99.0),
        "ntier.p999_ms": _percentile(rts, 99.9),
        "net.dropped": 0,
        "net.marked": 0,
        "sim.hybrid.fluid_completed": 0.0,
        "obs.spans": 0,
        "sim.sharded.rounds": 0,
        "sim.sharded.frames": 0,
        "sim.sharded.wire_bytes": 0,
    }
    if sharded:
        out["sim.sharded.rounds"] = run.rounds
        out["sim.sharded.frames"] = run.frames_exchanged
        out["sim.sharded.wire_bytes"] = run.wire_bytes
        return out
    if run.network is not None:
        stages = run.network.stages()
        out["net.dropped"] = sum(stage.dropped for stage in stages)
        out["net.marked"] = sum(stage.marked for stage in stages)
    if run.fluid is not None:
        out["sim.hybrid.fluid_completed"] = run.fluid.completed
    if run.obs is not None:
        store = run.obs.tracer.store
        out["obs.spans"] = (
            len(store)
            if store is not None
            else sum(len(t.spans) for t in run.obs.tracer.traces)
        )
    return out


# -- the sample -----------------------------------------------------------------


def _profile_layers(stats: dict, wall: float) -> dict:
    layers = attribute(stats)
    total = sum(entry["self_s"] for entry in layers.values())
    return {"wall_s": wall, "self_sum_s": total, "layers": layers}


def main(argv: List[str]) -> int:
    name, seed, traced, workdir = argv
    workload = WORKLOADS[name]
    traced = traced == "1"
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    probe = Probe(workdir, traced)
    probe.install()
    thunk = workload.build(int(seed))

    if traced:
        probe.profile = cProfile.Profile()
        probe.root_span = f"{probe.pid}.entry"
    before = [measure() for _ in range(5)]
    cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = perf()
    if traced:
        probe.profile.enable()
    run = thunk()
    if traced:
        probe.profile.disable()
    t1 = perf()
    cpu1 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)

    workers = sorted(
        (json.loads(path.read_text()) for path in workdir.glob("worker-*.json")),
        key=lambda w: w["name"],
    )
    starts = [probe.first_run] + [w["first_run"] for w in workers]
    starts = [s for s in starts if s is not None]
    kernel_s = probe.meter.samples + [
        k for w in workers for k in w["kernel_s"]
    ]
    host = {
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "setup_s": max(starts) - t0,
        # Host speed relative to the reference: during the run, the
        # mean over the meter's evenly spaced timings (work done is the
        # integral of speed over time); for set-up, from timings just
        # before it and just after it.
        "speed": relative_speed(kernel_s or before),
        "setup_speed": relative_speed(
            before
            + probe.setup_kernel_s
            + [k for w in workers for k in w["setup_kernel_s"]]
        ),
        "kernel_timings": len(kernel_s),
    }
    result: Dict[str, Any] = {
        "workload": name,
        "seed": int(seed),
        "traced": traced,
        "wall_s": host["wall_s"] * host["speed"],
        "cpu_s": host["cpu_s"] * host["speed"],
        "setup_s": host["setup_s"] * host["setup_speed"],
        "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF)
        + sum(w["peak_rss_mb"] for w in workers),
        "host": host,
        "digest": digest(run),
        "errors": conservation_errors(run),
        "counters": counters(run),
    }
    if traced:
        result["profile"] = _traced_result(probe, workers, t0, t1)
    print(json.dumps(result))
    return 0


def _traced_result(probe: Probe, workers: List[dict], t0, t1) -> dict:
    probe.profile.create_stats()
    processes = [_profile_layers(probe.profile.stats, t1 - t0)]
    processes[0]["pid"] = probe.pid
    spans = [
        {
            "id": probe.root_span,
            "name": "entry",
            "start": t0,
            "end": t1,
            "parent": None,
            "pid": probe.pid,
        }
    ]
    if probe.first_run is not None:
        spans.append(
            {
                "id": f"{probe.pid}.build",
                "name": "build",
                "start": t0,
                "end": probe.first_run,
                "parent": probe.root_span,
                "pid": probe.pid,
            }
        )
    spans.extend(probe.spans)
    gc_pause = probe.gc_pause_s
    gc_collections = probe.gc_collections
    transport = {"encode_s": 0.0, "decode_s": 0.0, "messages": 0}
    recv_wait = []
    for worker in workers:
        with open(probe.workdir / worker["profile"], "rb") as fh:
            stats = marshal.load(fh)
        entry = _profile_layers(stats, worker["wall_s"])
        entry["pid"] = worker["pid"]
        processes.append(entry)
        spans.extend(worker["spans"])
        gc_pause += worker["gc_pause_s"]
        gc_collections += worker["gc_collections"]
        for key in transport:
            transport[key] += worker[key]
        recv_wait.append(worker["recv_s"])
    with open(probe.workdir / "trace.jsonl", "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for proc in processes:
        for layer, entry in proc.pop("layers").items():
            layers[layer]["self_s"] += entry["self_s"]
            layers[layer]["calls"] += entry["calls"]
    return {
        "processes": processes,
        "layers": layers,
        "gc_pause_s": gc_pause,
        "gc_collections": gc_collections,
        "encode_s": transport["encode_s"],
        "decode_s": transport["decode_s"],
        "messages": transport["messages"],
        "recv_wait_s": recv_wait,
        "spans": len(spans),
    }


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    # Skip interpreter teardown: freeing the simulated world's heap
    # takes a sizeable share of a second and measures nothing.
    os._exit(code)
