"""Hybrid fluid/DES engine: mean-field bulk + sampled discrete users.

The pure-Python kernel simulates every user discretely, which caps the
population at a few tens of thousands before wall time explodes.  The
paper's closed-loop model (Eqs 2-10) and the validated MVA machinery
show that the *mean* queue dynamics are analytically tractable — only
the tail needs discrete events.  This module exploits that split:

* The **bulk** of the closed-loop population is advanced as continuous
  per-tier fluid state by :class:`FluidEngine` — a deterministic
  mean-field stepper (forward Euler on a fixed ``fluid_tick``, plus an
  exact re-step on every attack ON/OFF boundary) whose rate equations
  mirror the DES tier chain: closed-loop arrivals at rate
  ``x_think / Z``, bounded front-tier admission with TCP-RTO retry of
  the overflow, per-tier processor sharing at
  ``speed * min(load, cores)``, and synchronous-RPC thread pinning
  (a bulk request resident at MySQL still holds one Tomcat and one
  Apache thread, so upstream pools drain back-to-front exactly like
  the paper's Fig 9 cascade).
* A **sampled** sub-population of real users runs through the
  unmodified DES kernel and supplies the tail percentiles.  The fluid
  state feeds back into the discrete world as *background load*:
  :meth:`ProcessorSharingServer.set_background_load` (capacity share)
  and :meth:`Resource.set_background` (queue depth), so each sampled
  request experiences the same millibottleneck amplification as a full
  run.

The engine is RNG-free and touches no random stream; a hybrid run with
``sample_fraction=1.0`` has no bulk, never constructs the engine, and
is byte-identical to a plain full-DES run (asserted by the determinism
suite).

Layering: this module only knows :class:`Resource` and the PS-server
background hooks — the per-tier wiring (:class:`FluidTier`) is built by
the experiment runner from a :class:`~repro.cloud.platform.CloudDeployment`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, List, Optional

from .core import Simulator
from .psserver import ProcessorSharingServer
from .resources import Resource

__all__ = [
    "HybridConfig",
    "FluidTier",
    "FluidWindow",
    "FluidEngine",
    "fluid_tiers_for",
]


def fluid_tiers_for(
    tiers: List[Any], mean_demand: Callable[[str], float]
) -> List["FluidTier"]:
    """Build the per-tier fluid wiring for a chain of app tiers.

    ``tiers`` are :class:`~repro.ntier.tier.Tier`-shaped objects (the
    chain slice the engine's bulk flows through — the whole app in a
    single-host run, one shard's local slice in a datacenter run);
    ``mean_demand`` maps a tier name to the bulk's mean CPU demand
    there.  Called by the experiment runner's world builder, which
    single-host runs and datacenter shards share.
    """
    return [
        FluidTier(
            name=tier.name,
            cpu=tier.vm.cpu,
            pool=tier.pool,
            demand=mean_demand(tier.name),
            link_down=getattr(tier, "link_down", None),
            link_up=getattr(tier, "link_up", None),
        )
        for tier in tiers
    ]


@dataclass(frozen=True)
class HybridConfig:
    """Configuration of a hybrid fluid/DES run.

    ``sample_fraction`` of the population runs as real DES users; the
    rest becomes fluid.  ``fluid_tick`` is the Euler step (the stepper
    additionally syncs on every attack ON/OFF boundary, so burst edges
    are never smeared by the tick).  ``couple=False`` runs the sampled
    users against an idle deployment (useful for isolating the
    coupling's effect; also the documented byte-identity mode at
    ``sample_fraction=1.0``).  ``rto`` is the TCP retransmission
    timeout applied to bulk requests dropped at the front tier,
    matching the discrete clients' minimum RTO.
    """

    sample_fraction: float = 0.05
    fluid_tick: float = 0.02
    couple: bool = True
    rto: float = 1.0
    #: Cadence of ``fluid.window`` event-bus summaries (seconds).
    publish_window: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.fluid_tick <= 0:
            raise ValueError(f"fluid_tick must be > 0, got {self.fluid_tick}")
        if self.rto <= 0:
            raise ValueError(f"rto must be > 0, got {self.rto}")
        if self.publish_window <= 0:
            raise ValueError(
                f"publish_window must be > 0, got {self.publish_window}"
            )

    def split(self, users: int) -> "PopulationSplit":
        """Partition ``users`` into sampled discrete + fluid bulk."""
        if users < 1:
            raise ValueError(f"users must be >= 1, got {users}")
        sampled = int(round(users * self.sample_fraction))
        sampled = max(1, min(users, sampled))
        return PopulationSplit(
            users=users,
            sampled=sampled,
            bulk=users - sampled,
            weight=users / sampled,
        )


@dataclass(frozen=True)
class PopulationSplit:
    """How a hybrid run partitions the closed-loop population."""

    users: int
    sampled: int
    bulk: int
    weight: float


@dataclass
class FluidTier:
    """Per-tier wiring handed to the fluid engine by the runner."""

    name: str
    cpu: ProcessorSharingServer
    pool: Resource
    #: Mean bulk CPU demand at this tier (seconds at nominal speed).
    demand: float
    #: Routed queue chains to/from the next tier down (``None`` when the
    #: scenario has no network model, or at the last tier).  When set,
    #: the engine folds their :meth:`~repro.net.queues.QueueChain.
    #: fluid_delay` into the per-request cycle time, so the bulk feels
    #: network microbursts through the same serialization horizons as
    #: the discrete requests.
    link_down: Any = None
    link_up: Any = None

    def network_delay(self) -> float:
        """Current fluid network time per request at this tier's hop."""
        delay = 0.0
        if self.link_down is not None:
            delay += self.link_down.fluid_delay()
        if self.link_up is not None:
            delay += self.link_up.fluid_delay()
        return delay

    @property
    def capacity(self) -> int:
        return self.pool.capacity

    @property
    def admission_capacity(self) -> Optional[int]:
        if self.pool.max_queue is None:
            return None
        return self.pool.capacity + self.pool.max_queue


@dataclass(frozen=True)
class FluidWindow:
    """One ``publish_window`` summary of the bulk population's state."""

    start: float
    end: float
    #: Time-averaged bulk occupancy per tier (holders + waiters).
    queues: Dict[str, float]
    #: Time-averaged bulk users in think state.
    thinking: float
    #: Time-averaged bulk mass waiting out a front-tier-drop RTO.
    retrying: float
    #: Bulk request completions per second over the window.
    throughput: float
    #: Bulk front-tier drops per second over the window.
    drop_rate: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "queues": dict(self.queues),
            "thinking": self.thinking,
            "retrying": self.retrying,
            "throughput": self.throughput,
            "drop_rate": self.drop_rate,
        }


class FluidEngine:
    """Mean-field stepper for the bulk population of a hybrid run.

    State variables (all continuous, conservation holds exactly):

    * ``x[i]`` — bulk requests whose *deepest* position is tier ``i``
      (holding or waiting for a tier-``i`` slot).  With synchronous
      RPC, a request at tier ``i`` also pins one thread in every tier
      above it, so tier ``i``'s total bulk occupancy is the nested sum
      ``sum(x[i:])``.
    * ``thinking`` — bulk users in their think period (drains at rate
      ``thinking / think_time``).
    * retry buckets — front-tier-dropped mass re-arriving one RTO
      later, like the discrete clients' TCP retransmission.

    Each sync step (fluid tick or attack boundary) advances the state
    with the *cached* CPU speeds over the elapsed interval, then
    refreshes the speed cache — so a burst edge mid-tick is handled
    exactly: the engine subscribes to every tier's memory subsystem and
    re-steps on the boundary before the new speed takes effect.
    """

    def __init__(
        self,
        sim: Simulator,
        tiers: List[FluidTier],
        bulk_users: int,
        think_time: float,
        config: HybridConfig,
        bus: Optional[Any] = None,
    ):
        if not tiers:
            raise ValueError("FluidEngine needs at least one tier")
        if bulk_users < 0:
            raise ValueError(f"bulk_users must be >= 0, got {bulk_users}")
        if think_time <= 0:
            raise ValueError(f"think_time must be > 0, got {think_time}")
        self.sim = sim
        self.tiers = list(tiers)
        self.bulk_users = int(bulk_users)
        self.think_time = float(think_time)
        self.config = config
        self.bus = bus
        n = len(self.tiers)
        # -- fluid state ---------------------------------------------------
        self.x: List[float] = [0.0] * n
        self.thinking: float = float(bulk_users)
        #: (due time, mass) buckets of dropped bulk awaiting their RTO.
        self._retry: Deque[List[float]] = deque()
        self._retry_mass = 0.0
        # -- integrators ---------------------------------------------------
        self.completed = 0.0
        self.dropped = 0.0
        self.peak_queues: Dict[str, float] = {t.name: 0.0 for t in self.tiers}
        # -- per-window accumulators (time-weighted) -----------------------
        self._win_start = sim.now
        self._win_area = [0.0] * n
        self._win_think_area = 0.0
        self._win_retry_area = 0.0
        self._win_completed0 = 0.0
        self._win_dropped0 = 0.0
        self.windows: List[FluidWindow] = []
        #: Extra consumers of finished windows (the monitor verb).
        self.on_window: List[Callable[[FluidWindow], None]] = []
        # -- stepper bookkeeping -------------------------------------------
        self._last = sim.now
        self._speeds = [t.cpu.speed for t in self.tiers]
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the tick process (idempotent)."""
        if self._started:
            return
        self._started = True
        self._last = self.sim.now
        self._win_start = self.sim.now
        self._speeds = [t.cpu.speed for t in self.tiers]
        if self.config.couple:
            self._push_coupling()
        self.sim.process(self._run())

    def watch(self, memory: Any) -> None:
        """Re-step exactly on ``memory``'s contention ON/OFF boundaries.

        ``memory`` is a :class:`~repro.hardware.memory.MemorySubsystem`
        (duck-typed: anything with ``subscribe(fn)``).  Must be called
        *after* the deployment's VMs subscribed, so the engine sees the
        boundary after the CPU speeds were already updated — the step
        itself uses the speeds cached before the change.
        """
        memory.subscribe(self.sync)

    def _run(self) -> Generator:
        sim = self.sim
        tick = self.config.fluid_tick
        while True:
            yield tick
            self.sync()

    # -- stepping ----------------------------------------------------------

    def sync(self) -> None:
        """Advance fluid state to ``sim.now`` and refresh couplings."""
        now = self.sim.now
        dt = now - self._last
        if dt > 0.0:
            self._step(dt, now)
            self._last = now
        tiers = self.tiers
        self._speeds = [t.cpu.speed for t in tiers]
        if self.config.couple:
            self._push_coupling()
        self._maybe_publish(now)

    def _step(self, dt: float, now: float) -> None:
        """One explicit-Euler step over ``dt`` with the cached speeds."""
        tiers = self.tiers
        n = len(tiers)
        x = self.x
        speeds = self._speeds

        # Window accumulators integrate the pre-step state.
        nested_total = 0.0
        for i in range(n - 1, -1, -1):
            nested_total += x[i]
            self._win_area[i] += nested_total * dt
        self._win_think_area += self.thinking * dt
        self._win_retry_area += self._retry_mass * dt

        # Retry buckets whose RTO expired re-arrive this step.
        rearriving = 0.0
        retry = self._retry
        while retry and retry[0][0] <= now:
            rearriving += retry.popleft()[1]
        self._retry_mass -= rearriving

        # Closed-loop departures from think state.
        departing = self.thinking / self.think_time * dt
        if departing > self.thinking:
            departing = self.thinking
        arriving = departing + rearriving

        # Bounded front-tier admission (bulk sees the sampled discrete
        # occupancy too, so both populations share one admission queue).
        front = tiers[0]
        adm_cap = front.admission_capacity
        if adm_cap is not None and arriving > 0.0:
            occupied = nested_total + front.pool.occupancy
            free = adm_cap - occupied
            if free < 0.0:
                free = 0.0
            admitted = arriving if arriving < free else free
            dropped = arriving - admitted
        else:
            admitted = arriving
            dropped = 0.0
        if dropped > 0.0:
            self.dropped += dropped
            self._retry_mass += dropped
            retry.append([now + self.config.rto, dropped])

        # Per-tier service outflow, computed from the pre-step state.
        # A bulk request resident at tier i holds a thread in every
        # tier above, so the threads available to tier i's own
        # residents are capacity minus the deeper bulk minus the
        # discrete holders; of those, min(runnable, cores) make CPU
        # progress, shared PS-style with the discrete jobs.
        out = [0.0] * n
        deeper = 0.0
        for i in range(n - 1, -1, -1):
            tier = tiers[i]
            xi = x[i]
            if xi > 0.0:
                slots = tier.capacity - deeper - tier.pool.in_use
                runnable = xi if xi < slots else slots
                if runnable > 0.0:
                    demand = tier.demand
                    if demand > 0.0:
                        load = runnable + tier.cpu.active_jobs
                        cores = tier.cpu.cores
                        share = 1.0 if load < cores else cores / load
                        net = tier.network_delay()
                        if net > 0.0:
                            # Routed hop: the per-request cycle time is
                            # CPU service plus the chain's current fluid
                            # serialization delay, so background fill
                            # (NIC attacks, microbursts) slows the bulk
                            # exactly like the discrete requests.
                            mu = runnable / (
                                demand / (speeds[i] * share) + net
                            )
                        else:
                            # Zero-network fast path: keep the original
                            # expression verbatim — same float rounding,
                            # byte-identical to pre-network hybrid runs.
                            mu = speeds[i] * share * runnable / demand
                        served = mu * dt
                    else:
                        served = xi  # Zero-demand tier: passes through.
                    out[i] = served if served < xi else xi
            deeper += xi

        # Apply flows: front admission -> chain -> back to think.
        inflow = admitted
        for i in range(n):
            xi = x[i] + inflow - out[i]
            x[i] = xi if xi > 0.0 else 0.0
            inflow = out[i]
        self.thinking += inflow - departing
        if self.thinking < 0.0:
            self.thinking = 0.0
        self.completed += inflow

        # Peak bulk occupancy per tier (nested).
        nested = 0.0
        peaks = self.peak_queues
        for i in range(n - 1, -1, -1):
            nested += x[i]
            name = tiers[i].name
            if nested > peaks[name]:
                peaks[name] = nested

    # -- coupling ----------------------------------------------------------

    def _push_coupling(self) -> None:
        """Feed the bulk state into the discrete tiers as background load.

        Pool background = nested bulk occupancy (holders + waiters);
        CPU background = the bulk jobs actually runnable on this tier's
        cores right now.
        """
        tiers = self.tiers
        x = self.x
        nested = 0.0
        for i in range(len(tiers) - 1, -1, -1):
            tier = tiers[i]
            xi = x[i]
            slots = tier.capacity - nested  # deeper bulk pins these
            nested += xi
            runnable = xi if xi < slots else slots
            if runnable < 0.0:
                runnable = 0.0
            tier.cpu.set_background_load(runnable)
            tier.pool.set_background(nested)

    # -- reporting ---------------------------------------------------------

    def occupancy(self, index: int) -> float:
        """Nested bulk occupancy of tier ``index`` (holders + waiters)."""
        return sum(self.x[index:])

    def _maybe_publish(self, now: float) -> None:
        window = self.config.publish_window
        if now - self._win_start >= window:
            # Flush over the *actual* elapsed span (tick-quantized, so
            # roughly one publish_window) — the accumulators integrate
            # exactly [win_start, now] since every flush happens on a
            # sync, right after _step covered the interval.
            end = now
            span = end - self._win_start
            queues = {
                tier.name: self._win_area[i] / span
                for i, tier in enumerate(self.tiers)
            }
            fluid_window = FluidWindow(
                start=self._win_start,
                end=end,
                queues=queues,
                thinking=self._win_think_area / span,
                retrying=self._win_retry_area / span,
                throughput=(self.completed - self._win_completed0) / span,
                drop_rate=(self.dropped - self._win_dropped0) / span,
            )
            self.windows.append(fluid_window)
            if self.bus is not None:
                self.bus.publish("fluid.window", fluid_window)
            for consumer in self.on_window:
                consumer(fluid_window)
            self._win_start = end
            self._win_area = [0.0] * len(self.tiers)
            self._win_think_area = 0.0
            self._win_retry_area = 0.0
            self._win_completed0 = self.completed
            self._win_dropped0 = self.dropped
