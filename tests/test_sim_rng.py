"""Unit tests for seeded random streams."""

import numpy as np
import pytest

from repro.sim import RandomStreams


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(1)
        assert streams.get("a") is streams.get("a")

    def test_reproducible_across_instances(self):
        a = RandomStreams(42).get("workload").random(5)
        b = RandomStreams(42).get("workload").random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("workload").random(5)
        b = RandomStreams(2).get("workload").random(5)
        assert not np.array_equal(a, b)

    def test_named_streams_independent_of_request_order(self):
        one = RandomStreams(7)
        _ = one.get("first").random(100)
        late = one.get("second").random(3)

        two = RandomStreams(7)
        early = two.get("second").random(3)
        assert np.array_equal(late, early)

    def test_different_names_different_sequences(self):
        streams = RandomStreams(3)
        a = streams.get("a").random(5)
        b = streams.get("b").random(5)
        assert not np.array_equal(a, b)

    def test_exponential_helper_positive(self):
        streams = RandomStreams(9)
        draws = [streams.exponential("think", 2.0) for _ in range(100)]
        assert all(d > 0 for d in draws)
        assert np.mean(draws) == pytest.approx(2.0, rel=0.5)

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            RandomStreams(0).exponential("x", 0.0)
