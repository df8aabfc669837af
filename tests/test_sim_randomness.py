"""Tests for the named random substreams."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams


class TestStreamIdentity:
    def test_same_name_same_stream(self):
        streams = RandomStreams(7)
        assert streams.stream("ems") is streams.stream("ems")

    def test_reproducible_across_instances(self):
        a = RandomStreams(7).stream("ems").random()
        b = RandomStreams(7).stream("ems").random()
        assert a == b

    def test_different_names_diverge(self):
        streams = RandomStreams(7)
        a = [streams.stream("ems").random() for _ in range(5)]
        b = [streams.stream("workload").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_diverge(self):
        a = RandomStreams(1).stream("ems").random()
        b = RandomStreams(2).stream("ems").random()
        assert a != b

    def test_streams_are_independent(self):
        """Drawing from one stream must not perturb another."""
        solo = RandomStreams(3)
        expected = [solo.stream("a").random() for _ in range(5)]

        mixed = RandomStreams(3)
        got = []
        for _ in range(5):
            mixed.stream("noise").random()
            got.append(mixed.stream("a").random())
        assert got == expected


class TestDistributions:
    def test_lognormal_zero_cv_is_deterministic(self):
        streams = RandomStreams(0)
        assert streams.lognormal("x", mean=5.0, cv=0.0) == 5.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        name=st.text(max_size=12),
        mean=st.floats(min_value=1e-6, max_value=1e6),
        cv=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_lognormal_sampler_is_lognormvariate_bit_for_bit(
        self, seed, name, mean, cv
    ):
        """The written-out draw is the stdlib's, float for float, and
        leaves its stream where the stdlib would."""
        streams = RandomStreams(seed)
        sampler = streams.lognormal_sampler(name, mean, cv)
        reference = RandomStreams(seed).stream(name)
        sigma2 = math.log(1.0 + cv * cv)
        mu, sigma = math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2)
        for _ in range(200):
            assert sampler().hex() == reference.lognormvariate(mu, sigma).hex()
        assert streams.stream(name).getstate() == reference.getstate()
        assert streams.lognormal_sampler(name, mean, 0.0)() == mean

    def test_lognormal_mean_converges(self):
        streams = RandomStreams(11)
        samples = [streams.lognormal("x", mean=10.0, cv=0.2) for _ in range(4000)]
        assert statistics.fmean(samples) == pytest.approx(10.0, rel=0.05)

    def test_lognormal_samples_positive(self):
        streams = RandomStreams(11)
        assert all(
            streams.lognormal("x", mean=1.0, cv=1.0) > 0 for _ in range(200)
        )

    def test_lognormal_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            RandomStreams(0).lognormal("x", mean=0.0, cv=0.1)

    def test_lognormal_rejects_negative_cv(self):
        with pytest.raises(ValueError):
            RandomStreams(0).lognormal("x", mean=1.0, cv=-0.1)

    def test_exponential_mean_converges(self):
        streams = RandomStreams(13)
        samples = [streams.exponential("x", mean=4.0) for _ in range(4000)]
        assert statistics.fmean(samples) == pytest.approx(4.0, rel=0.08)

    def test_exponential_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            RandomStreams(0).exponential("x", mean=-1.0)

    def test_uniform_respects_bounds(self):
        streams = RandomStreams(17)
        for _ in range(100):
            value = streams.uniform("x", 2.0, 3.0)
            assert 2.0 <= value <= 3.0

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            RandomStreams(0).uniform("x", 3.0, 2.0)

    def test_pareto_exceeds_scale(self):
        streams = RandomStreams(19)
        assert all(
            streams.pareto("x", shape=2.0, scale=5.0) >= 5.0 for _ in range(200)
        )

    def test_pareto_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RandomStreams(0).pareto("x", shape=0.0, scale=1.0)

    def test_choice_uniform_coverage(self):
        streams = RandomStreams(23)
        options = ["a", "b", "c"]
        picks = {streams.choice("x", options) for _ in range(200)}
        assert picks == set(options)

    def test_choice_rejects_empty(self):
        with pytest.raises(ValueError):
            RandomStreams(0).choice("x", [])
