"""Rack/ToR bandwidth-latency matrix of the datacenter fabric.

Single-host scenarios model one machine's co-residency; the datacenter
scenarios (``repro.experiments.datacenter``) spread the tier chain over
several hosts connected through a two-level fabric: every host hangs
off its rack's ToR switch, and racks meet at an oversubscribed spine.
:class:`RackTopology` is the static matrix of that fabric — for any
ordered host pair it answers *which* link class connects them (ToR or
spine), at what one-way propagation latency and serialization rate.

The matrix serves two consumers:

* :class:`~repro.net.fabric.CrossHostLink` builds its serialization
  stages from the pair's :class:`LinkSpec` (plus the host NIC rate), so
  cross-host RPCs pay rack-local vs cross-rack costs;
* the sharded kernel derives its conservative lookahead from
  :meth:`lookahead` — the *minimum possible* delivery delay across a
  pair, which is exactly the safe-window bound of the null-message
  protocol (DESIGN.md §12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = ["LinkSpec", "RackTopology"]


@dataclass(frozen=True)
class LinkSpec:
    """One directed inter-host link class: latency + serialization rate.

    ``latency`` is the one-way propagation + protocol-stack delay;
    ``rate`` the messages/second the narrowest switch port on the path
    serializes (spine rates are already divided by oversubscription).
    """

    latency: float
    rate: float

    def __post_init__(self) -> None:
        if self.latency <= 0:
            raise ValueError(f"latency must be positive: {self.latency}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive: {self.rate}")


@dataclass(frozen=True)
class RackTopology:
    """A two-level datacenter fabric: hosts -> ToR racks -> spine.

    ``racks`` maps rack names to the hosts they contain, in order.
    Same-rack pairs traverse the ToR (low latency, full port rate);
    cross-rack pairs traverse the spine, whose effective per-pair rate
    is ``spine_rate / oversubscription`` — the classic fat-tree
    oversubscription knob.  Frozen so it hashes into the sweep cache
    like every other scenario ingredient.
    """

    racks: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: Host NIC serialization rate (messages/s), shared by every link.
    nic_rate: float = 120000.0
    #: Same-rack (ToR) one-way latency and port rate.
    tor_latency: float = 0.0005
    tor_rate: float = 200000.0
    #: Cross-rack (spine) one-way latency and aggregate port rate.
    spine_latency: float = 0.002
    spine_rate: float = 400000.0
    #: Spine oversubscription ratio: effective cross-rack rate is
    #: ``spine_rate / oversubscription``.
    oversubscription: float = 4.0

    def __post_init__(self) -> None:
        if not self.racks:
            raise ValueError("a topology needs at least one rack")
        seen = set()
        for rack, hosts in self.racks:
            if not hosts:
                raise ValueError(f"rack {rack!r} has no hosts")
            for host in hosts:
                if host in seen:
                    raise ValueError(f"duplicate host {host!r}")
                seen.add(host)
        for label, value in (
            ("nic_rate", self.nic_rate),
            ("tor_latency", self.tor_latency),
            ("tor_rate", self.tor_rate),
            ("spine_latency", self.spine_latency),
            ("spine_rate", self.spine_rate),
            ("oversubscription", self.oversubscription),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be positive: {value}")

    # -- matrix lookups ---------------------------------------------------

    @property
    def hosts(self) -> Tuple[str, ...]:
        return tuple(h for _, hosts in self.racks for h in hosts)

    def rack_of(self, host: str) -> str:
        for rack, hosts in self.racks:
            if host in hosts:
                return rack
        raise KeyError(f"no host named {host!r}")

    def link(self, src: str, dst: str) -> LinkSpec:
        """The link class connecting ``src`` to ``dst``."""
        if src == dst:
            raise ValueError(f"no self-link: {src!r}")
        if self.rack_of(src) == self.rack_of(dst):
            return LinkSpec(self.tor_latency, self.tor_rate)
        return LinkSpec(
            self.spine_latency, self.spine_rate / self.oversubscription
        )

    def lookahead(self, src: str, dst: str) -> float:
        """Minimum possible delivery delay ``src`` -> ``dst``.

        One message through an idle sender NIC ring plus an idle uplink
        port, plus propagation.  Serialization under load only *adds*
        delay (queue horizons are monotone), so any message sent at
        ``t`` arrives no earlier than ``t + lookahead`` — the bound the
        conservative window protocol advances on.
        """
        spec = self.link(src, dst)
        return 1.0 / self.nic_rate + 1.0 / spec.rate + spec.latency

    def min_lookahead(self, pairs: Sequence[Tuple[str, str]]) -> float:
        """The safe-window width for a set of directed host pairs."""
        if not pairs:
            raise ValueError("no host pairs: nothing to bound")
        return min(self.lookahead(src, dst) for src, dst in pairs)
