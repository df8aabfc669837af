"""Tests for the ASCII bar chart."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.metrics.textchart import bar_chart


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

