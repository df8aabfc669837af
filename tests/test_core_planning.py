"""Tests for the resource planner and Erlang-B machinery (paper §4)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.planning import (
    DemandForecast,
    ResourcePlanner,
    erlang_b,
    servers_for_blocking,
)
from repro.errors import ConfigurationError


class TestErlangB:
    def test_zero_load_never_blocks(self):
        assert erlang_b(0, 0.0) == 0.0
        assert erlang_b(5, 0.0) == 0.0

    def test_zero_servers_always_blocks(self):
        assert erlang_b(0, 3.0) == 1.0

    def test_textbook_value(self):
        # A classic: 10 Erlangs on 10 servers blocks ~21.5%.
        assert erlang_b(10, 10.0) == pytest.approx(0.2146, abs=1e-3)

    def test_another_textbook_value(self):
        # 2 Erlangs on 5 servers blocks ~3.7%.
        assert erlang_b(5, 2.0) == pytest.approx(0.0367, abs=1e-3)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            erlang_b(-1, 1.0)
        with pytest.raises(ConfigurationError):
            erlang_b(1, -1.0)

    @given(
        servers=st.integers(min_value=0, max_value=50),
        load=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_probability_bounds(self, servers, load):
        blocking = erlang_b(servers, load)
        assert 0.0 <= blocking <= 1.0

    @given(
        servers=st.integers(min_value=1, max_value=30),
        load=st.floats(min_value=0.1, max_value=30.0),
    )
    def test_monotone_in_servers(self, servers, load):
        assert erlang_b(servers, load) <= erlang_b(servers - 1, load)


class TestServersForBlocking:
    def test_meets_target(self):
        servers = servers_for_blocking(10.0, 0.01)
        assert erlang_b(servers, 10.0) <= 0.01
        assert erlang_b(servers - 1, 10.0) > 0.01

    def test_zero_load_needs_zero(self):
        assert servers_for_blocking(0.0, 0.01) == 0

    def test_bad_target(self):
        with pytest.raises(ConfigurationError):
            servers_for_blocking(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            servers_for_blocking(1.0, 1.0)

    @given(load=st.floats(min_value=0.1, max_value=40.0))
    def test_result_always_satisfies_target(self, load):
        servers = servers_for_blocking(load, 0.05)
        assert erlang_b(servers, load) <= 0.05


class TestForecast:
    def test_offered_erlangs(self):
        forecast = DemandForecast("NYC", "LAX", 2.0, 1.5)
        assert forecast.offered_erlangs == 3.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DemandForecast("NYC", "LAX", -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            DemandForecast("NYC", "LAX", 1.0, 0.0)


class TestResourcePlanner:
    @pytest.fixture
    def planner(self):
        return ResourcePlanner()

    @pytest.fixture
    def forecasts(self):
        return [
            DemandForecast("NYC", "LAX", 1.0, 2.0),  # 2 Erlangs
            DemandForecast("NYC", "ATL", 0.5, 2.0),  # 1 Erlang
            DemandForecast("ATL", "LAX", 0.5, 4.0),  # 2 Erlangs
        ]

    def test_per_node_load_sums_endpoints(self, planner, forecasts):
        load = planner.offered_load_per_node(forecasts)
        assert load["NYC"] == pytest.approx(3.0)
        assert load["LAX"] == pytest.approx(4.0)
        assert load["ATL"] == pytest.approx(3.0)
        assert "CHI" not in load  # pass-through nodes hold no OTs

    def test_size_pools_meets_target(self, planner, forecasts):
        pools = planner.size_pools(forecasts, target_blocking=0.01,
                                   restoration_headroom=0)
        blocking = planner.expected_blocking(forecasts, pools)
        assert all(b <= 0.01 for b in blocking.values())

    def test_headroom_adds_spares(self, planner, forecasts):
        lean = planner.size_pools(forecasts, restoration_headroom=0)
        padded = planner.size_pools(forecasts, restoration_headroom=2)
        assert all(padded[node] == lean[node] + 2 for node in lean)

    def test_negative_headroom_rejected(self, planner, forecasts):
        with pytest.raises(ConfigurationError):
            planner.size_pools(forecasts, restoration_headroom=-1)

    def test_tighter_target_needs_more_ots(self, planner, forecasts):
        loose = planner.size_pools(forecasts, target_blocking=0.1,
                                   restoration_headroom=0)
        tight = planner.size_pools(forecasts, target_blocking=0.001,
                                   restoration_headroom=0)
        assert all(tight[node] >= loose[node] for node in loose)
        assert sum(tight.values()) > sum(loose.values())
