"""Tests for the summary statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import summarize


class TestSummarize:
    def test_single_sample(self):
        summary = summarize([5.0])
        assert summary.count == 1
        assert summary.mean == summary.p50 == summary.p95 == 5.0

    def test_known_values(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.mean == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.p50 == 3.0

    def test_p95_interpolates(self):
        summary = summarize(list(map(float, range(1, 101))))
        assert summary.p95 == pytest.approx(95.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_format(self):
        text = str(summarize([1.0, 2.0]))
        assert "n=2" in text
        assert "mean=1.5" in text

    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100
        )
    )
    def test_invariants(self, samples):
        summary = summarize(samples)
        assert summary.minimum <= summary.p50 <= summary.p95 <= summary.maximum
        # Mean can drift past the extremes by float rounding only.
        tolerance = 1e-9 * max(1.0, abs(summary.maximum), abs(summary.minimum))
        assert summary.minimum - tolerance <= summary.mean
        assert summary.mean <= summary.maximum + tolerance
        assert summary.count == len(samples)
