"""Trace-driven hardening: same arrivals, hardened deployment.

Capacity planning against MemCA with controlled replay: record the
exact arrival trace (timestamps, pages, demands) of a run that was
under attack, then replay the *identical* trace against deployments
hardened per the closed-form model's advice (a deeper front queue
stretches the build-up stage past the burst length; more DB headroom
raises Condition 2's bar).  Because the sample path is fixed, every
difference in the outcome is the deployment's doing.

Run:  python examples/trace_hardening.py
"""

from dataclasses import replace

import numpy as np

from repro.analysis import format_table
from repro.cloud import CloudDeployment, rubbos_3tier
from repro.core import MemCAAttack
from repro.experiments import (
    PRIVATE_CLOUD,
    completed_after_warmup,
    run_rubbos,
)
from repro.sim import RandomStreams, Simulator
from repro.workload import TraceReplayGenerator, record_trace


def replay_against(trace, *, apache_threads, apache_backlog,
                   mysql_vcpus, label, scenario):
    sim = Simulator()
    streams = RandomStreams(scenario.seed + 1)
    config = rubbos_3tier(
        apache_threads=apache_threads,
        apache_backlog=apache_backlog,
        tomcat_threads=scenario.tomcat_threads,
        mysql_connections=scenario.mysql_connections,
        host_spec=scenario.host_spec,
    )
    # Optionally scale up the DB VM (more vCPUs = more headroom).
    tiers = list(config.tiers)
    tiers[-1] = replace(tiers[-1], vcpus=mysql_vcpus)
    config = replace(config, tiers=tuple(tiers))
    deployment = CloudDeployment(sim, config)
    attack = MemCAAttack(
        sim,
        deployment,
        length=scenario.attack.length,
        interval=scenario.attack.interval,
        jitter=scenario.attack.jitter,
        rng=streams.get("attack"),
    )
    attack.launch()
    replay = TraceReplayGenerator(sim, deployment.app, trace)
    replay.start()
    sim.run(until=scenario.duration)
    requests = completed_after_warmup(
        deployment.app.completed, scenario.warmup
    )
    rts = np.array([r.response_time for r in requests])
    return [
        label,
        f"{np.percentile(rts, 95) * 1e3:.0f} ms",
        f"{np.percentile(rts, 99) * 1e3:.0f} ms",
        f"{float(np.mean(rts > 1.0)):.1%}",
        deployment.app.front.drops,
    ]


def main() -> None:
    scenario = replace(PRIVATE_CLOUD, duration=45.0)
    print("recording the attack-period arrival trace ...")
    source = run_rubbos(scenario)
    trace = record_trace(source.app.completed + source.app.failed)
    print(f"captured {len(trace)} arrivals\n")

    rows = []
    for kwargs in (
        dict(apache_threads=scenario.apache_threads,
             apache_backlog=scenario.apache_backlog,
             mysql_vcpus=2, label="as deployed (70/20, 2 vCPU DB)"),
        dict(apache_threads=220, apache_backlog=30,
             mysql_vcpus=2, label="deep front queue (220/30)"),
        dict(apache_threads=scenario.apache_threads,
             apache_backlog=scenario.apache_backlog,
             mysql_vcpus=4, label="DB headroom (4 vCPU)"),
        dict(apache_threads=220, apache_backlog=30,
             mysql_vcpus=4, label="both hardenings"),
    ):
        print(f"replaying against: {kwargs['label']} ...")
        rows.append(replay_against(trace, scenario=scenario, **kwargs))

    print()
    print(
        format_table(
            ["deployment", "p95", "p99", ">RTO", "drops"],
            rows,
            title=(
                "Identical arrival trace, identical attack "
                "(L=500ms, I=2s lock bursts), different deployments"
            ),
        )
    )
    print(
        "\nReading: the deep front queue delays overflow past the "
        "burst (fewer drops, but queueing delay remains); DB headroom "
        "attacks Condition 2 directly; combined, the tail collapses."
    )


if __name__ == "__main__":
    main()
