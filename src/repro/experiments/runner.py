"""Shared experiment machinery: build, run, and package a scenario.

``build_world`` is the one RUBBoS world builder (deployment, network,
population, adversaries, fluid bulk in a fixed order), shared by
``run_rubbos`` and every datacenter shard.  ``run_rubbos`` executes a
closed-loop RUBBoS scenario (with or without MemCA) and returns a
:class:`RubbosRun` carrying the application, the attack handle, and
all monitors; experiments that add components of their own (agent
monitors, baseline attackers, the migration defense, the feedback
controller, the live ``monitor`` display) add them through its
``attach`` hook, so every RUBBoS run is one build and one collector
run.  ``run_model`` executes an open-loop
queueing-network scenario in one of the three service disciplines the
paper's Figs 6/7 compare.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ..cloud.platform import CloudDeployment, DeploymentConfig, TierConfig
from ..core.attack import MemCAAttack
from ..core.burst import OnOffAttacker
from ..core.programs import (
    AttackProgram,
    LLCCleansingAttack,
    MemoryBusSaturation,
    MemoryLockAttack,
    NicSaturation,
)
from ..net import TierNetwork
from ..monitoring.oprofile import LLCMissProfiler
from ..monitoring.sampler import PeriodicSampler, UtilizationMonitor
from ..obs import FULL_TRACING, LiveTelemetry, TelemetryConfig
from ..ntier.request import RequestLog
from ..ntier.client import UserPopulation
from ..sim.core import Simulator, WorldCollector
from ..sim.hybrid import FluidEngine, HybridConfig, fluid_tiers_for
from ..sim.rng import RandomStreams
from ..workload.generator import OpenLoopGenerator, exponential_request_factory
from ..workload.rubbos import RubbosWorkload
from .configs import ModelScenario, RubbosScenario
from .summary import completed_after_warmup

__all__ = [
    "World",
    "build_world",
    "RubbosRun",
    "run_rubbos",
    "ModelRun",
    "run_model",
    "MODEL_MODES",
    "make_attack_program",
    "split_attack_program",
]


def make_attack_program(
    program: str,
    host_bandwidth_mbps: float,
    nic_rate_pps: Optional[float] = None,
) -> AttackProgram:
    """Instantiate the attack program named ``program``."""
    if program == "lock":
        return MemoryLockAttack()
    if program == "saturate":
        return MemoryBusSaturation(
            stream_bandwidth_mbps=host_bandwidth_mbps
        )
    if program == "cleanse":
        return LLCCleansingAttack()
    if program == "nic":
        if nic_rate_pps is not None:
            return NicSaturation(line_rate_pps=nic_rate_pps)
        return NicSaturation()
    raise ValueError(f"unknown attack program {program!r}")


def split_attack_program(program: str) -> Tuple[Optional[str], bool]:
    """Split a spec's program string into (memory program, wants NIC).

    ``"lock"`` → ``("lock", False)``; ``"nic"`` → ``(None, True)``;
    the combined ``"lock+nic"`` (either order) → ``("lock", True)``.
    """
    parts = program.split("+")
    if len(parts) > 2 or "" in parts:
        raise ValueError(f"malformed attack program {program!r}")
    wants_nic = "nic" in parts
    memory = [p for p in parts if p != "nic"]
    if len(memory) > 1:
        raise ValueError(
            f"at most one memory program per spec: {program!r}"
        )
    return (memory[0] if memory else None), wants_nic


@dataclass
class World:
    """One built RUBBoS world: a deployment slice and what drives it.

    Returned by :func:`build_world`; every field but ``deployment`` and
    ``workload`` is ``None`` when the slice or scenario does not call
    for it (no front tier → no population, no attack spec → no
    adversary, no ``network=`` → no queue chains, no bulk → no fluid).
    """

    deployment: CloudDeployment
    workload: RubbosWorkload
    population: Optional[UserPopulation]
    attack: Optional[MemCAAttack]
    network: Optional[TierNetwork]
    net_attack: Optional[OnOffAttacker]
    fluid: Optional[FluidEngine]


def build_world(
    sim: Simulator,
    scenario: RubbosScenario,
    streams: RandomStreams,
    users: int,
    weight: float = 1.0,
    bulk: Optional[Tuple[int, float, HybridConfig]] = None,
    tiers: Optional[Sequence[str]] = None,
    observer=None,
) -> World:
    """Build one RUBBoS world on ``sim`` in the canonical order.

    The single way a world is assembled — by :func:`run_rubbos` over
    the full chain and by every datacenter shard over its slice —
    so both run exactly the same construction sequence:

    1. the deployment for ``tiers`` (default: the whole chain), then
       ``observer`` (a :class:`~repro.obs.LiveTelemetry`) attached to
       its app;
    2. the scenario's tier network, when configured (fed by the
       observer's bus);
    3. the closed-loop population of ``users`` DES clients, each
       request weighted ``weight`` — only when the slice holds the
       chain's front tier — then started;
    4. the memory attack of ``scenario.attack``, then launched;
    5. the NIC attacker, for programs naming ``nic``;
    6. the fluid ``bulk`` (bulk users, think time, engine config): the
       engine watches every memory subsystem (so it re-steps exactly on
       attack edges), then starts.

    Every random draw comes from a name-addressed substream of
    ``streams``, so a slice draws exactly what the same tiers draw in a
    full-chain world.
    """
    config = scenario.deployment_config()
    front = config.tiers[0].name
    if tiers is not None:
        config = replace(
            config, tiers=tuple(t for t in config.tiers if t.name in tiers)
        )
    deployment = CloudDeployment(sim, config)
    app = deployment.app
    bus = None
    if observer is not None:
        observer.attach(sim, app)
        bus = observer.bus

    network = None
    if scenario.network is not None:
        network = TierNetwork(
            sim,
            scenario.network,
            tuple(tier.name for tier in app.tiers),
            bus=bus,
        )
        network.attach(app)

    workload = RubbosWorkload(
        rng=streams.get("workload"), distribution=scenario.distribution
    )
    population = None
    if app.front.name == front:
        population = UserPopulation(
            sim,
            app,
            workload.make_request,
            users=users,
            think_time=scenario.think_time,
            rng=streams.get("users"),
            weight=weight,
        )
        population.start()

    attack = None
    net_attack = None
    spec = scenario.attack
    if spec is not None:
        bandwidth = scenario.host_spec.mem_bandwidth_mbps
        mem_program, wants_nic = split_attack_program(spec.program)
        if mem_program is not None:
            attack = MemCAAttack(
                sim,
                deployment,
                program=make_attack_program(mem_program, bandwidth),
                length=spec.length,
                interval=spec.interval,
                intensity=spec.intensity,
                adversaries=spec.adversaries,
                target_tier=spec.target_tier,
                jitter=spec.jitter,
                rng=streams.get("attack"),
                monitor_interval=scenario.monitor_interval,
            )
            attack.launch()
        if wants_nic:
            if network is None:
                raise ValueError(
                    f"attack program {spec.program!r} needs a scenario "
                    "with network= set (there is no NIC to contend on)"
                )
            net_attack = OnOffAttacker(
                sim,
                network.nics[spec.target_tier or app.back.name],
                [f"net-adversary{i + 1}" for i in range(spec.adversaries)],
                make_attack_program(
                    "nic", bandwidth, scenario.network.nic_rate
                ),
                length=spec.length,
                interval=spec.interval,
                intensity=spec.intensity,
                jitter=spec.jitter,
                rng=streams.get("netattack"),
            )
            net_attack.start()

    fluid = None
    if bulk is not None:
        bulk_users, think_time, hybrid = bulk
        # The bulk's mean demands are a workload-model property, not a
        # random draw: the engine is RNG-free and never perturbs the
        # discrete substreams.
        fluid = FluidEngine(
            sim,
            tiers=fluid_tiers_for(app.tiers, workload.mean_demand),
            bulk_users=bulk_users,
            think_time=think_time,
            config=hybrid,
            bus=bus,
        )
        # Registered after the deployment wired the VMs and the
        # adversary, so the engine's callback runs last and steps with
        # the pre-change speeds it cached.
        for memory in deployment.memories.values():
            fluid.watch(memory)
        fluid.start()

    return World(
        deployment=deployment,
        workload=workload,
        population=population,
        attack=attack,
        network=network,
        net_attack=net_attack,
        fluid=fluid,
    )


@dataclass
class RubbosRun:
    """Everything a figure generator needs from one RUBBoS run."""

    scenario: RubbosScenario
    sim: Simulator
    deployment: CloudDeployment
    workload: RubbosWorkload
    population: UserPopulation
    attack: Optional[MemCAAttack]
    util_monitors: Dict[str, UtilizationMonitor]
    queue_sampler: PeriodicSampler
    llc_profiler: Optional[LLCMissProfiler]
    #: Present only when the run was started with ``tracing=...``.
    obs: Optional[LiveTelemetry] = None
    #: Present only in hybrid fluid/DES runs with a non-empty bulk.
    fluid: Optional[FluidEngine] = None
    #: Present only when the scenario carries a ``network=`` config.
    network: Optional[TierNetwork] = None
    #: The NIC-contention attacker ("nic" / combined programs only).
    net_attack: Optional[OnOffAttacker] = None

    @property
    def app(self):
        return self.deployment.app

    def client_requests(self) -> RequestLog:
        """Completed requests that finished after warmup."""
        return completed_after_warmup(
            self.app.completed, self.scenario.warmup
        )

    @property
    def measured_window(self) -> float:
        return self.scenario.duration - self.scenario.warmup


def run_rubbos(
    scenario: RubbosScenario,
    collect_llc: bool = False,
    attach: Optional[Callable[[RubbosRun], None]] = None,
    tracing: Union[bool, TelemetryConfig] = False,
    hybrid: Optional[HybridConfig] = None,
) -> RubbosRun:
    """Build and execute one closed-loop RUBBoS scenario.

    The world comes from :func:`build_world` over the full chain (the
    same builder every datacenter shard uses); this function adds the
    observers around it — the observability stack before, then the
    per-tier utilization monitors, the queue sampler and the LLC
    profiler, in that order — packages them in the returned
    :class:`RubbosRun` and runs it inside a
    :class:`~repro.sim.core.WorldCollector`.

    ``attach(run)`` adds the caller's own components — extra monitors,
    attackers, a defense, a feedback controller, a display on the
    telemetry bus — to the world.  It is called once, with the record
    this function returns, after everything above is in place and
    before the first event, inside the collector discipline, so what
    it builds is frozen and run with the world.  Add components here,
    not by running a zero-length scenario and then the clock by hand:
    that second run would execute outside the collector discipline.

    ``tracing`` attaches the observability stack
    (:class:`repro.obs.LiveTelemetry`, landing in ``RubbosRun.obs``):
    ``True`` means :data:`repro.obs.FULL_TRACING` — every finished
    request keeps its span tree, plus the metrics registry and kernel
    self-profiling, with no windowed pipeline; a
    :class:`~repro.obs.TelemetryConfig` means that config — e.g. the
    default's streaming windowed quantile sketches, base-sampled plus
    promoted-tail trace retention and, when it carries an SLO, the
    tail-SLO detector publishing ``slo.violation`` /
    ``millibottleneck.onset`` bus topics.  The stack is purely
    observational — it schedules no events and draws no random numbers
    — so results are byte-identical with it on or off at the same
    seed.  Its bus also carries the network's ``net.*`` and the fluid
    bulk's ``fluid.window`` topics.

    ``hybrid=HybridConfig(...)`` (or the scenario's own ``hybrid``
    field; the argument wins) runs the scenario in hybrid fluid/DES
    mode: only ``sample_fraction`` of the users run as discrete DES
    clients (each request weighted by ``users / sampled``) while the
    bulk advances as mean-field fluid state coupled back into the
    tiers as background load (see :mod:`repro.sim.hybrid`).  With
    ``sample_fraction=1.0`` the bulk is empty, no engine is built, and
    the run takes the exact full-DES code path — byte-identical
    results, no RNG-stream perturbation.
    """
    with WorldCollector() as collector:
        if hybrid is None:
            hybrid = scenario.hybrid
        obs = None
        if tracing:
            obs = LiveTelemetry(FULL_TRACING if tracing is True else tracing)
        users, weight, bulk = scenario.users, 1.0, None
        if hybrid is not None:
            split = hybrid.split(scenario.users)
            users, weight = split.sampled, split.weight
            if split.bulk > 0:
                bulk = (split.bulk, scenario.think_time, hybrid)
        streams = RandomStreams(scenario.seed)
        sim = Simulator()
        world = build_world(
            sim,
            scenario,
            streams,
            users=users,
            weight=weight,
            bulk=bulk,
            observer=obs,
        )
        deployment = world.deployment
        fluid = world.fluid

        util_monitors = {}
        for tier_name, vm in deployment.vms.items():
            monitor = UtilizationMonitor(
                sim, vm.cpu, interval=scenario.monitor_interval
            )
            monitor.start()
            util_monitors[tier_name] = monitor

        if fluid is None:
            probes = {
                tier.name: (lambda t=tier: t.queue_length)
                for tier in deployment.app.tiers
            }
        else:
            # Hybrid: the paper's per-tier queue length is discrete
            # occupancy plus the bulk's nested fluid occupancy, clipped at
            # the tier's admission capacity like Tier.queue_length.
            def _hybrid_probe(tier, index, engine=fluid):
                def probe():
                    cap = tier.admission_capacity
                    if cap is None:
                        cap = tier.pool.capacity
                    occupancy = tier.occupancy + engine.occupancy(index)
                    return occupancy if occupancy < cap else cap
                return probe

            probes = {
                tier.name: _hybrid_probe(tier, index)
                for index, tier in enumerate(deployment.app.tiers)
            }
        queue_sampler = PeriodicSampler(
            sim,
            scenario.queue_sample_interval,
            probes,
        )
        queue_sampler.start()

        llc_profiler = None
        if collect_llc:
            mysql_vm = deployment.vm("mysql")
            assert mysql_vm.llc is not None
            llc_profiler = LLCMissProfiler(
                sim,
                mysql_vm.llc,
                interval=scenario.monitor_interval,
                rng=streams.get("oprofile"),
            )
            llc_profiler.start()

        run = RubbosRun(
            scenario=scenario,
            sim=sim,
            deployment=deployment,
            workload=world.workload,
            population=world.population,
            attack=world.attack,
            util_monitors=util_monitors,
            queue_sampler=queue_sampler,
            llc_profiler=llc_profiler,
            obs=obs,
            fluid=fluid,
            network=world.network,
            net_attack=world.net_attack,
        )
        if attach is not None:
            attach(run)
        collector.run(sim, until=scenario.duration)
    if obs is not None:
        obs.finalize(scenario.duration)
    return run


#: The three service disciplines compared in Figs 6/7.
MODEL_MODES = ("tandem", "attack-infinite-front", "attack-finite")


@dataclass
class ModelRun:
    """One open-loop queueing-network run."""

    scenario: ModelScenario
    mode: str
    sim: Simulator
    deployment: CloudDeployment
    generator: OpenLoopGenerator
    attacker: OnOffAttacker
    queue_sampler: PeriodicSampler
    mysql_monitor: UtilizationMonitor

    @property
    def app(self):
        return self.deployment.app

    def client_requests(self) -> RequestLog:
        return completed_after_warmup(
            self.app.completed, self.scenario.warmup
        )


def _model_deployment_config(
    scenario: ModelScenario, mode: str
) -> DeploymentConfig:
    huge = 10**6
    tiers = []
    for index, (name, q) in enumerate(
        zip(scenario.tier_names, scenario.queue_sizes)
    ):
        if mode == "tandem":
            # Independent M/M/1 stations: one server, unbounded FIFO.
            concurrency, backlog = 1, None
        elif mode == "attack-infinite-front" and index == 0:
            concurrency, backlog = huge, None
        elif mode == "attack-finite" and index == 0:
            concurrency, backlog = q, scenario.apache_backlog
        else:
            concurrency, backlog = q, None
        tiers.append(
            TierConfig(
                name=name,
                vcpus=1,
                concurrency=concurrency,
                max_backlog=backlog,
                mem_demand_mbps=2000.0,
            )
        )
    return DeploymentConfig(tiers=tuple(tiers))


def run_model(
    scenario: ModelScenario,
    mode: str,
    queue_sample_interval: float = 0.005,
) -> ModelRun:
    """Run one of the Fig 6/7 model cases under the fixed burst."""
    if mode not in MODEL_MODES:
        raise ValueError(f"mode must be one of {MODEL_MODES}, got {mode!r}")
    with WorldCollector() as collector:
        streams = RandomStreams(scenario.seed)
        sim = Simulator()
        deployment = CloudDeployment(
            sim, _model_deployment_config(scenario, mode)
        )
        demand_means = {
            name: 1.0 / rate
            for name, rate in zip(scenario.tier_names, scenario.service_rates)
        }
        factory = exponential_request_factory(
            demand_means, streams.get("demands")
        )
        generator = OpenLoopGenerator(
            sim,
            deployment.app,
            factory,
            rate=scenario.arrival_rate,
            rng=streams.get("arrivals"),
            tandem=(mode == "tandem"),
        )
        generator.start()

        # Degrade MySQL to exactly C_on = D * C_off during ON bursts.
        burst = scenario.burst
        program = MemoryLockAttack(max_lock_duty=1.0 - burst.D)
        memory = deployment.co_locate_adversary("mysql")
        attacker = OnOffAttacker(
            sim,
            memory,
            "adversary",
            program,
            length=burst.L,
            interval=burst.I,
            intensity=1.0,
        )
        attacker.start()

        # Tandem stations have concurrency 1, so their queue is the raw
        # occupancy; RPC tiers report the paper's clipped queue length.
        if mode == "tandem":
            probes = {
                tier.name: (lambda t=tier: t.occupancy)
                for tier in deployment.app.tiers
            }
        else:
            probes = {
                tier.name: (lambda t=tier: t.queue_length)
                for tier in deployment.app.tiers
            }
        queue_sampler = PeriodicSampler(sim, queue_sample_interval, probes)
        queue_sampler.start()
        mysql_monitor = UtilizationMonitor(
            sim, deployment.vm("mysql").cpu, interval=0.01
        )
        mysql_monitor.start()

        collector.run(sim, until=scenario.duration)
    return ModelRun(
        scenario=scenario,
        mode=mode,
        sim=sim,
        deployment=deployment,
        generator=generator,
        attacker=attacker,
        queue_sampler=queue_sampler,
        mysql_monitor=mysql_monitor,
    )
