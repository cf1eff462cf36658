"""Seeded random-number streams for reproducible experiments.

Every stochastic component in the reproduction draws from a named
substream derived from a single root seed, so that (a) experiments are
bit-for-bit reproducible given the seed and (b) changing the number of
draws in one component does not perturb the randomness seen by another
(common random numbers across experiment variants).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A factory of independent, named numpy generators.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.get("workload")
    >>> b = streams.get("attack")
    >>> a is streams.get("workload")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The substream seed is derived from the root seed and a stable
        hash of the name, so stream identity does not depend on the
        order in which streams are first requested.
        """
        if name not in self._streams:
            # Stable, platform-independent digest of the name.
            digest = 0
            for ch in name:
                digest = (digest * 1000003 + ord(ch)) % (2**63)
            child = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=(digest,)
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def exponential(self, name: str, mean: float) -> float:
        """Draw one exponential variate with the given mean."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive: {mean}")
        return float(self.get(name).exponential(mean))
