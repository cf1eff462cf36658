"""Quickstart: launch a MemCA attack against a simulated 3-tier app.

Builds the RUBBoS-style deployment (one VM per tier, one host per VM),
drives it with closed-loop users, co-locates an adversary VM with the
MySQL host, and runs the ON-OFF memory-lock attack for 40 simulated
seconds.  Prints the resulting percentile response times per tier and
the attack's own effect report.

Run:  python examples/quickstart.py
"""

from repro.analysis import (
    client_percentile_curve,
    format_percentile_curves,
    tier_percentile_curves,
)
from repro.cloud import CloudDeployment, rubbos_3tier
from repro.core import MemCAAttack, MemoryLockAttack
from repro.experiments import completed_after_warmup
from repro.ntier import UserPopulation
from repro.sim import RandomStreams, Simulator
from repro.workload import RubbosWorkload


def main() -> None:
    streams = RandomStreams(seed=7)
    sim = Simulator()

    # The target: Apache -> Tomcat -> MySQL, queue sizes Q1 > Q2 > Q3.
    deployment = CloudDeployment(sim, rubbos_3tier())

    # Legitimate load: closed-loop users browsing a RUBBoS-like site.
    workload = RubbosWorkload(rng=streams.get("workload"))
    users = UserPopulation(
        sim,
        deployment.app,
        workload.make_request,
        users=3000,
        think_time=7.0,
        rng=streams.get("users"),
    )
    users.start()

    # The attack: 500 ms memory-lock bursts every 2 s from one
    # co-located adversary VM on the MySQL host.
    attack = MemCAAttack(
        sim,
        deployment,
        program=MemoryLockAttack(),
        length=0.5,
        interval=2.0,
        jitter=0.2,
        rng=streams.get("attack"),
    )
    attack.launch()

    print("running 60 simulated seconds of MemCA ...")
    sim.run(until=60.0)

    requests = completed_after_warmup(deployment.app.completed, warmup=8.0)
    curves = tier_percentile_curves(
        requests, ("apache", "tomcat", "mysql")
    )
    curves["client"] = client_percentile_curve(requests)
    print()
    print(
        format_percentile_curves(
            curves,
            order=("client", "apache", "tomcat", "mysql"),
            title="Percentile response time under MemCA",
        )
    )
    print()
    effect = attack.effect(since=8.0)
    print("attack effect:", effect.summary())
    p95 = effect.percentiles[95]
    print(
        f"\ndamage goal (p95 > 1 s): "
        f"{'MET' if p95 > 1.0 else 'not met'} (p95 = {p95:.2f}s)"
    )
    mmb = effect.mean_millibottleneck or 0.0
    print(
        f"stealth goal (millibottleneck < 1 s): "
        f"{'MET' if mmb < 1.0 else 'not met'} (mean = {mmb * 1e3:.0f}ms)"
    )


if __name__ == "__main__":
    main()
