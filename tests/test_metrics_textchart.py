"""Tests for the ASCII chart helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.metrics.textchart import bar_chart, histogram, sparkline


class TestBarChart:
    def test_proportional_bars(self):
        chart = bar_chart([("a", 10), ("b", 5)], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_zero_value_gets_no_bar(self):
        chart = bar_chart([("a", 10), ("b", 0)], width=10)
        assert chart.splitlines()[1].count("#") == 0

    def test_labels_aligned(self):
        chart = bar_chart([("long-label", 1), ("x", 2)])
        lines = chart.splitlines()
        assert lines[0].index("#") == lines[1].index("#")
        assert "long-label" in lines[0]

    def test_unit_suffix(self):
        chart = bar_chart([("a", 3)], unit=" s")
        assert chart.endswith("3 s")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bar_chart([])
        with pytest.raises(ConfigurationError):
            bar_chart([("a", -1)])
        with pytest.raises(ConfigurationError):
            bar_chart([("a", 1)], width=0)

    def test_all_zero_series(self):
        chart = bar_chart([("a", 0), ("b", 0)])
        assert "#" not in chart

    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=1e6), min_size=1, max_size=10
        )
    )
    def test_never_exceeds_width(self, values):
        chart = bar_chart(
            [(f"v{i}", v) for i, v in enumerate(values)], width=20
        )
        for line in chart.splitlines():
            assert line.count("#") <= 21  # rounding may add one


class TestHistogram:
    def test_counts_sum_to_samples(self):
        samples = [1.0, 1.5, 2.0, 2.5, 3.0, 9.0]
        chart = histogram(samples, bins=4)
        total = sum(
            int(line.rsplit(None, 1)[-1]) for line in chart.splitlines()
        )
        assert total == len(samples)

    def test_degenerate_distribution(self):
        chart = histogram([5.0, 5.0, 5.0])
        assert "3" in chart

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            histogram([])
        with pytest.raises(ConfigurationError):
            histogram([1.0], bins=0)


class TestSparkline:
    def test_length_matches_samples(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series_uses_extremes(self):
        line = sparkline([0, 10])
        assert line[0] == " "
        assert line[-1] == "@"

    def test_flat_series(self):
        line = sparkline([7, 7, 7])
        assert len(set(line)) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sparkline([])
