"""Mean Value Analysis (MVA) for the closed-loop n-tier baseline.

The RUBBoS workload is a *closed* network: N users cycle through think
time Z and a chain of service stations (the tiers).  Exact MVA computes
the no-attack steady state — throughput, response time, per-tier queue
lengths and utilizations — which (a) predicts the operating point the
attack scenarios start from, and (b) gives the defender's capacity
math: how many users a deployment sustains before the bottleneck
saturates on its own.

Multi-server stations use the Seidmann transformation: an m-server
station with per-visit demand D behaves approximately like a queueing
station with demand D/m in series with a pure delay of D(m-1)/m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["Station", "MvaResult", "mva", "saturation_population"]


@dataclass(frozen=True)
class Station:
    """One queueing station: mean per-visit demand and server count."""

    name: str
    demand: float
    servers: int = 1

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError(f"negative demand: {self.demand}")
        if self.servers < 1:
            raise ValueError(f"servers must be >= 1: {self.servers}")


@dataclass(frozen=True)
class MvaResult:
    """Closed-network steady state for one population size."""

    population: int
    think_time: float
    throughput: float
    response_time: float
    #: station name -> mean residence time per visit (seconds).
    residence_times: Dict[str, float]
    #: station name -> mean queue length (jobs).
    queue_lengths: Dict[str, float]
    #: station name -> utilization in [0, 1].
    utilizations: Dict[str, float]

    @property
    def bottleneck(self) -> str:
        """The station with the highest utilization."""
        return max(self.utilizations, key=self.utilizations.get)


def _seidmann(stations: Sequence[Station]) -> Tuple[List[Station], float]:
    """Split multi-server stations into queueing part + fixed delay."""
    queueing = []
    extra_delay = 0.0
    for station in stations:
        if station.servers == 1:
            queueing.append(station)
        else:
            queueing.append(
                Station(
                    station.name,
                    station.demand / station.servers,
                    servers=1,
                )
            )
            extra_delay += (
                station.demand * (station.servers - 1) / station.servers
            )
    return queueing, extra_delay


def mva(
    stations: Sequence[Station],
    population: int,
    think_time: float,
) -> MvaResult:
    """Exact MVA (with Seidmann multi-server approximation).

    ``population=0`` is the empty-network base case of the recursion:
    zero throughput, empty queues, and zero-queueing residence times
    (so ``response_time`` is the no-load R_0) — the fixed point hybrid
    fluid models start from.
    """
    if population < 0:
        raise ValueError(f"population must be >= 0: {population}")
    if think_time < 0:
        raise ValueError(f"negative think_time: {think_time}")
    if not stations:
        raise ValueError("need at least one station")
    queueing, extra_delay = _seidmann(stations)
    total_delay = think_time + extra_delay
    queue = [0.0] * len(queueing)
    throughput = 0.0
    # Base case (n=0): no queueing, residence = pure demand; the loop
    # below overwrites this for any positive population.
    residence = [station.demand for station in queueing]
    for n in range(1, population + 1):
        residence = [
            station.demand * (1.0 + queue[k])
            for k, station in enumerate(queueing)
        ]
        cycle = total_delay + sum(residence)
        throughput = n / cycle if cycle > 0 else float("inf")
        queue = [throughput * r for r in residence]
    response = sum(residence) + extra_delay
    utilizations = {
        original.name: min(
            1.0, throughput * original.demand / original.servers
        )
        for original in stations
    }
    return MvaResult(
        population=population,
        think_time=think_time,
        throughput=throughput,
        response_time=response,
        residence_times={
            station.name: r for station, r in zip(queueing, residence)
        },
        queue_lengths={
            station.name: q for station, q in zip(queueing, queue)
        },
        utilizations=utilizations,
    )


def saturation_population(
    stations: Sequence[Station], think_time: float
) -> float:
    """The knee N* of the closed network's throughput curve.

    Asymptotic bound analysis: throughput is bounded by
    ``min(N / (Z + R_0), c_max / D_max)``; the bounds cross at
    ``N* = (Z + R_0) * c_max / D_max`` where R_0 is the zero-queueing
    response time.  Below N* the system scales ~linearly with users;
    above it the bottleneck saturates and response time grows with N.
    """
    if not stations:
        raise ValueError("need at least one station")
    r0 = sum(s.demand for s in stations)
    per_station_capacity = [s.servers / s.demand for s in stations
                            if s.demand > 0]
    if not per_station_capacity:
        return float("inf")
    bottleneck_capacity = min(per_station_capacity)
    return (think_time + r0) * bottleneck_capacity
