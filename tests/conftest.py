"""Shared test fixtures: pinned global RNGs, the collector on/off
parametrisation, opt-in perf gate.

Every component in the reproduction takes an explicit
``numpy.random.Generator`` (see ``repro.experiments.streams``); nothing
in the simulation may consume the *global* ``random`` / ``np.random``
streams, or results would depend on import order and test interleaving.
The autouse fixture below pins both globals to a fixed seed before each
test so any accidental dependence is at least deterministic; the audit
tests in ``tests/test_determinism.py`` assert the stronger property
that a full simulation run does not consume the globals at all.
"""

import gc
import os
import random

import numpy as np
import pytest

#: The seed every test starts from (arbitrary, fixed forever).
GLOBAL_TEST_SEED = 0x5EED


def max_examples(n: int) -> int:
    """``n``, capped by the ``HYPOTHESIS_MAX_EXAMPLES`` environment.

    CI sets the cap so the long Hypothesis properties stay bounded;
    tests opt in with ``@settings(max_examples=max_examples(n))``.
    """
    cap = os.environ.get("HYPOTHESIS_MAX_EXAMPLES")
    return n if cap is None else min(n, int(cap))


@pytest.fixture(autouse=True)
def _pinned_global_rngs():
    """Reseed the global RNGs before every test."""
    random.seed(GLOBAL_TEST_SEED)
    np.random.seed(GLOBAL_TEST_SEED)
    yield


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    """Run the test with the cyclic collector on, then off; restore it."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if enabled else gc.disable)()


def pytest_addoption(parser):
    parser.addoption(
        "--perf",
        action="store_true",
        default=False,
        help="run the @pytest.mark.perf wall-clock and full-scale gates "
        "(skipped by default: wall-clock gates flake on loaded boxes)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--perf"):
        return
    skip_perf = pytest.mark.skip(reason="perf gate disabled; use --perf")
    for item in items:
        if "perf" in item.keywords:
            item.add_marker(skip_perf)
