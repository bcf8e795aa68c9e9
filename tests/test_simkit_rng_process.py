"""Tests for random streams."""

import numpy as np

from repro.simkit.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).stream("x").random(5)
        b = RandomStreams(7).stream("x").random(5)
        assert np.array_equal(a, b)

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(5)
        b = RandomStreams(2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_stream_is_memoized(self):
        streams = RandomStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_fresh_replays_from_start(self):
        streams = RandomStreams(0)
        first = streams.stream("x").random(3)
        replay = streams.fresh("x").random(3)
        assert np.array_equal(first, replay)

    def test_adding_consumer_does_not_perturb_existing(self):
        s1 = RandomStreams(5)
        a_only = s1.stream("a").random(4)
        s2 = RandomStreams(5)
        s2.stream("b").random(10)  # extra consumer first
        a_after = s2.stream("a").random(4)
        assert np.array_equal(a_only, a_after)

