"""n-tier web application simulator (the RUBBoS substitute).

Tiers with finite thread pools, synchronous RPC chaining, a tandem-queue
comparison mode, TCP retransmission on front-tier drops, and closed-loop
/ open-loop clients.
"""

from .app import NTierApplication
from .client import ClosedLoopClient, OpenLoopProber, UserPopulation, fetch
from .replicated import ReplicatedTier
from .request import Request
from .tcp import DEFAULT_TCP, RetransmissionPolicy
from .tier import Tier, TierOverflowError

__all__ = [
    "ClosedLoopClient",
    "DEFAULT_TCP",
    "NTierApplication",
    "OpenLoopProber",
    "ReplicatedTier",
    "Request",
    "RetransmissionPolicy",
    "Tier",
    "TierOverflowError",
    "UserPopulation",
    "fetch",
]
