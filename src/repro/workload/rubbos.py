"""RUBBoS-like workload: page classes, page mix, demands.

RUBBoS models the Slashdot news site.  We reproduce its browse-only mix
as a catalogue of page classes with per-tier mean CPU demands and a
Markov transition matrix over pages.  Each request's page is drawn
i.i.d. from the chain's stationary distribution
(:meth:`RubbosWorkload.make_request`), and users think for exponential
times between requests (mean 7 s, the RUBBoS default used in Section
V-A).

Demand means are calibrated so that, at the paper's operating point
(3500 users / ~500 req/s), the MySQL tier on 2 vCPUs runs at moderate
(~50-60%) average CPU utilization and is the critical resource — the
paper's stated baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ntier.request import Request
from .distributions import DemandDistribution, Deterministic, Exponential

__all__ = [
    "PageClass",
    "RUBBOS_PAGES",
    "RUBBOS_TRANSITIONS",
    "RubbosWorkload",
    "markov_stationary",
]


@dataclass(frozen=True)
class PageClass:
    """One page type and its mean CPU demand (seconds) per tier."""

    name: str
    demand_means: Tuple[Tuple[str, float], ...]

    def mean(self, tier: str) -> float:
        return dict(self.demand_means).get(tier, 0.0)


def _page(name: str, apache: float, tomcat: float, mysql: float) -> PageClass:
    return PageClass(
        name=name,
        demand_means=(
            ("apache", apache),
            ("tomcat", tomcat),
            ("mysql", mysql),
        ),
    )


#: The browse-only RUBBoS page mix (demands in seconds of CPU).
RUBBOS_PAGES: List[PageClass] = [
    _page("StoriesOfTheDay", 0.0005, 0.0012, 0.0024),
    _page("ViewStory", 0.0005, 0.0014, 0.0030),
    _page("ViewComment", 0.0004, 0.0012, 0.0026),
    _page("BrowseCategories", 0.0004, 0.0008, 0.0012),
    _page("BrowseStoriesByCategory", 0.0005, 0.0012, 0.0022),
    _page("Search", 0.0005, 0.0016, 0.0034),
    _page("AuthorLogin", 0.0004, 0.0010, 0.0016),
    _page("StaticContent", 0.0004, 0.0, 0.0),
]

#: Row-stochastic navigation matrix (rows/cols index RUBBOS_PAGES);
#: requests draw their pages i.i.d. from its stationary distribution.
RUBBOS_TRANSITIONS = np.array(
    [
        # SotD  View  Comm  BrCat BrSto Search Login Static
        [0.10, 0.45, 0.05, 0.15, 0.05, 0.10, 0.02, 0.08],  # StoriesOfTheDay
        [0.20, 0.15, 0.40, 0.05, 0.05, 0.05, 0.02, 0.08],  # ViewStory
        [0.15, 0.25, 0.35, 0.05, 0.05, 0.05, 0.02, 0.08],  # ViewComment
        [0.10, 0.05, 0.02, 0.10, 0.55, 0.08, 0.02, 0.08],  # BrowseCategories
        [0.10, 0.40, 0.10, 0.15, 0.10, 0.05, 0.02, 0.08],  # BrowseStories...
        [0.15, 0.35, 0.10, 0.10, 0.10, 0.10, 0.02, 0.08],  # Search
        [0.40, 0.20, 0.05, 0.10, 0.05, 0.10, 0.02, 0.08],  # AuthorLogin
        [0.35, 0.25, 0.05, 0.10, 0.05, 0.10, 0.02, 0.08],  # StaticContent
    ]
)


def _check_stochastic(matrix: np.ndarray) -> None:
    sums = matrix.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise ValueError(f"transition rows must sum to 1, got {sums}")


_check_stochastic(RUBBOS_TRANSITIONS)


def markov_stationary(transitions: np.ndarray) -> np.ndarray:
    """Stationary visit probabilities of a row-stochastic matrix."""
    pi = np.full(len(transitions), 1.0 / len(transitions))
    for _ in range(500):
        nxt = pi @ transitions
        if np.allclose(nxt, pi, atol=1e-12):
            pi = nxt
            break
        pi = nxt
    return pi / pi.sum()


class RubbosWorkload:
    """Samples RUBBoS pages and builds requests with random demands.

    ``demand_scale`` multiplies every mean demand — the knob used to
    place the bottleneck utilization where an experiment wants it.
    Per-request demands are exponentially distributed around the page's
    mean (the paper's service-time assumption, Section IV-B).
    """

    TIERS = ("apache", "tomcat", "mysql")

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        demand_scale: float = 1.0,
        pages: Optional[List[PageClass]] = None,
        transitions: Optional[np.ndarray] = None,
        deterministic_demands: bool = False,
        distribution: Optional[DemandDistribution] = None,
    ):
        if demand_scale <= 0:
            raise ValueError(f"demand_scale must be positive: {demand_scale}")
        self.rng = rng if rng is not None else np.random.default_rng()
        self.demand_scale = demand_scale
        self.pages = list(pages) if pages is not None else list(RUBBOS_PAGES)
        self.transitions = (
            np.asarray(transitions)
            if transitions is not None
            else RUBBOS_TRANSITIONS
        )
        if self.transitions.shape != (len(self.pages), len(self.pages)):
            raise ValueError("transition matrix shape mismatch")
        _check_stochastic(self.transitions)
        if distribution is not None:
            self.distribution = distribution
        elif deterministic_demands:
            self.distribution = Deterministic()
        else:
            self.distribution = Exponential()
        self._stationary: Optional[np.ndarray] = None
        self._stationary_cdf: Optional[np.ndarray] = None
        # Per-page scaled (tier, mean) pairs with zero-demand tiers
        # already filtered, so sample_demands is pure RNG draws.
        self._scaled_means = [
            [
                (tier, mean * self.demand_scale)
                for tier, mean in page.demand_means
                if mean * self.demand_scale > 0
            ]
            for page in self.pages
        ]
        self._page_index = {id(page): i for i, page in enumerate(self.pages)}
        self._exponential_demands = isinstance(self.distribution, Exponential)

    # -- page sampling -----------------------------------------------------

    def stationary_distribution(self) -> np.ndarray:
        """Stationary page-visit probabilities of the Markov chain."""
        if self._stationary is None:
            self._stationary = markov_stationary(self.transitions)
        return self._stationary

    def _cdf_of(self, p: np.ndarray) -> np.ndarray:
        """The normalized inclusive CDF ``Generator.choice(p=...)`` uses.

        Sampling ``cdf.searchsorted(rng.random(), side="right")``
        consumes exactly one uniform double — the same stream draw as
        ``rng.choice(n, p=p)`` — and returns the same index, so the fast
        path below is bit-for-bit identical to the ``choice`` call it
        replaced (asserted in ``tests/test_workload.py`` and by the
        golden determinism suite).
        """
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return cdf

    def sample_page(self) -> PageClass:
        """Draw a page i.i.d. from the stationary distribution."""
        if self._stationary_cdf is None:
            self._stationary_cdf = self._cdf_of(self.stationary_distribution())
        idx = self._stationary_cdf.searchsorted(
            self.rng.random(), side="right"
        )
        return self.pages[idx]

    # -- demand / request construction --------------------------------------

    def sample_demands(self, page: PageClass) -> Dict[str, float]:
        """Per-tier CPU demand for one request of ``page``."""
        index = self._page_index.get(id(page))
        if index is None:
            # A page object not from self.pages (ad-hoc caller).
            scaled = [
                (tier, mean * self.demand_scale)
                for tier, mean in page.demand_means
                if mean * self.demand_scale > 0
            ]
        else:
            scaled = self._scaled_means[index]
        if self._exponential_demands:
            # Fast path: rng.exponential(mean) directly — identical
            # draws to Exponential.sample without the dispatch.
            rng = self.rng
            return {
                tier: float(rng.exponential(mean)) for tier, mean in scaled
            }
        sample = self.distribution.sample
        rng = self.rng
        return {tier: sample(rng, mean) for tier, mean in scaled}

    def make_request(
        self, rid: int, page: Optional[PageClass] = None
    ) -> Request:
        """Build a request for ``page`` (or a stationary sample)."""
        if page is None:
            page = self.sample_page()
        return Request(rid=rid, page=page.name, demands=self.sample_demands(page))

    def mean_demand(self, tier: str) -> float:
        """Stationary-weighted mean demand at ``tier`` (scaled)."""
        pi = self.stationary_distribution()
        return self.demand_scale * float(
            sum(p * page.mean(tier) for p, page in zip(pi, self.pages))
        )
