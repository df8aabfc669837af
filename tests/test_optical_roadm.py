"""Tests for ROADM nodes: degrees, ports, add/drop and express connects."""

import pytest

from repro.errors import (
    ConfigurationError,
    EquipmentError,
    WavelengthBlockedError,
)
from repro.optical import Roadm, WavelengthGrid


@pytest.fixture
def grid():
    return WavelengthGrid(8)


@pytest.fixture
def roadm(grid):
    """A 3-degree colorless/non-directional ROADM with 4 ports."""
    node = Roadm("ROADM-I", grid)
    for neighbor in ("ROADM-II", "ROADM-III", "ROADM-IV"):
        node.add_degree(neighbor)
    node.add_ports(4)
    return node


class TestConstruction:
    def test_degree_count(self, roadm):
        assert roadm.degree_count == 3
        assert roadm.degrees == {"ROADM-II", "ROADM-III", "ROADM-IV"}

    def test_duplicate_degree_rejected(self, roadm):
        with pytest.raises(ConfigurationError):
            roadm.add_degree("ROADM-II")

    def test_self_degree_rejected(self, grid):
        node = Roadm("X", grid)
        with pytest.raises(ConfigurationError):
            node.add_degree("X")

    def test_ports_installed(self, roadm):
        assert roadm.port_count == 4
        assert roadm.free_port_count() == 4 and not roadm.connected_ports()
        assert not roadm.port("AD:ROADM-I:3").in_use

    def test_port_count_must_be_positive(self, roadm):
        with pytest.raises(ConfigurationError):
            roadm.add_ports(0)

    def test_directional_roadm_requires_fixed_degree(self, grid):
        node = Roadm("X", grid, non_directional=False)
        node.add_degree("Y")
        with pytest.raises(ConfigurationError):
            node.add_ports(1)
        node.add_ports(1, fixed_degree="Y")

    def test_colored_roadm_requires_fixed_channel(self, grid):
        node = Roadm("X", grid, colorless=False)
        node.add_degree("Y")
        with pytest.raises(ConfigurationError):
            node.add_ports(1)
        node.add_ports(1, fixed_channel=3)

    def test_fixed_degree_must_exist(self, roadm):
        with pytest.raises(ConfigurationError):
            roadm.add_ports(1, fixed_degree="ROADM-X")

    def test_unknown_port_lookup(self, roadm):
        with pytest.raises(EquipmentError):
            roadm.port("AD:ROADM-I:99")


class TestAddDrop:
    def test_connect_reserves_channel_and_port(self, roadm):
        roadm.connect_add_drop("AD:ROADM-I:0", "ROADM-III", 2, "lp-1")
        port = roadm.port("AD:ROADM-I:0")
        assert port.in_use
        assert port.connected_degree == "ROADM-III"
        assert port.connected_channel == 2
        assert roadm.channel_owner("ROADM-III", 2) == "lp-1"

    def test_colorless_port_any_channel(self, roadm):
        port = roadm.connect_add_drop("AD:ROADM-I:0", "ROADM-II", 7, "lp-1")
        assert port.connected_channel == 7

    def test_nondirectional_port_any_degree(self, roadm):
        roadm.connect_add_drop("AD:ROADM-I:0", "ROADM-II", 0, "lp-1")
        roadm.connect_add_drop("AD:ROADM-I:1", "ROADM-IV", 0, "lp-2")
        assert roadm.channel_owner("ROADM-II", 0) == "lp-1"
        assert roadm.channel_owner("ROADM-IV", 0) == "lp-2"

    def test_busy_port_rejected(self, roadm):
        port = roadm.port("AD:ROADM-I:0")
        roadm.connect_add_drop(port.port_id, "ROADM-II", 0, "lp-1")
        with pytest.raises(EquipmentError):
            roadm.connect_add_drop(port.port_id, "ROADM-III", 1, "lp-2")

    def test_channel_conflict_on_degree_blocked(self, roadm):
        roadm.connect_add_drop("AD:ROADM-I:0", "ROADM-II", 0, "lp-1")
        with pytest.raises(WavelengthBlockedError):
            roadm.connect_add_drop("AD:ROADM-I:1", "ROADM-II", 0, "lp-2")

    def test_unknown_degree_rejected(self, roadm):
        with pytest.raises(EquipmentError):
            roadm.connect_add_drop("AD:ROADM-I:0", "ROADM-X", 0, "lp-1")

    def test_directional_port_enforces_degree(self, grid):
        node = Roadm("X", grid, non_directional=False)
        node.add_degree("Y")
        node.add_degree("Z")
        node.add_ports(1, fixed_degree="Y")
        port = node.port("AD:X:0")
        assert port.fixed_degree == "Y"
        with pytest.raises(EquipmentError):
            node.connect_add_drop(port.port_id, "Z", 0, "lp-1")

    def test_colored_port_enforces_channel(self, grid):
        node = Roadm("X", grid, colorless=False)
        node.add_degree("Y")
        node.add_ports(1, fixed_channel=3)
        port = node.port("AD:X:0")
        assert port.fixed_channel == 3
        with pytest.raises(EquipmentError):
            node.connect_add_drop(port.port_id, "Y", 4, "lp-1")
        node.connect_add_drop(port.port_id, "Y", 3, "lp-1")

    def test_disconnect_frees_resources(self, roadm):
        port = roadm.connect_add_drop("AD:ROADM-I:0", "ROADM-II", 0, "lp-1")
        roadm.disconnect_add_drop(port.port_id, "lp-1")
        assert not port.in_use
        assert not roadm.port(port.port_id).in_use
        assert roadm.channel_owner("ROADM-II", 0) is None

    def test_disconnect_owner_mismatch(self, roadm):
        port = roadm.port("AD:ROADM-I:0")
        roadm.connect_add_drop(port.port_id, "ROADM-II", 0, "lp-1")
        with pytest.raises(EquipmentError):
            roadm.disconnect_add_drop(port.port_id, "lp-2")

    def test_disconnect_idle_port_rejected(self, roadm):
        with pytest.raises(EquipmentError):
            roadm.disconnect_add_drop("AD:ROADM-I:0", "lp-1")


class TestExpress:
    def test_express_occupies_both_degrees(self, roadm):
        roadm.connect_express("ROADM-II", "ROADM-III", 5, "lp-1")
        assert roadm.channel_owner("ROADM-II", 5) == "lp-1"
        assert roadm.channel_owner("ROADM-III", 5) == "lp-1"

    def test_express_conflicts_with_add_drop(self, roadm):
        roadm.connect_add_drop("AD:ROADM-I:0", "ROADM-II", 5, "lp-1")
        with pytest.raises(WavelengthBlockedError):
            roadm.connect_express("ROADM-II", "ROADM-III", 5, "lp-2")

    def test_express_same_degree_rejected(self, roadm):
        with pytest.raises(EquipmentError):
            roadm.connect_express("ROADM-II", "ROADM-II", 0, "lp-1")

    def test_disconnect_express(self, roadm):
        roadm.connect_express("ROADM-II", "ROADM-III", 5, "lp-1")
        roadm.disconnect_express("ROADM-II", "ROADM-III", 5, "lp-1")
        assert roadm.channel_owner("ROADM-II", 5) is None
        assert roadm.channel_owner("ROADM-III", 5) is None

    def test_disconnect_express_owner_mismatch(self, roadm):
        roadm.connect_express("ROADM-II", "ROADM-III", 5, "lp-1")
        with pytest.raises(EquipmentError):
            roadm.disconnect_express("ROADM-II", "ROADM-III", 5, "lp-2")

    def test_disconnect_missing_express(self, roadm):
        with pytest.raises(EquipmentError):
            roadm.disconnect_express("ROADM-II", "ROADM-III", 5, "lp-1")


class TestQueries:
    def test_free_channels_shrink(self, roadm):
        roadm.connect_express("ROADM-II", "ROADM-III", 0, "lp-1")
        assert 0 not in roadm.free_channels("ROADM-II")
        assert 0 not in roadm.free_channels("ROADM-III")
        assert 0 in roadm.free_channels("ROADM-IV")

    def test_free_ports_filters(self, grid):
        node = Roadm("X", grid, non_directional=False)
        node.add_degree("Y")
        node.add_degree("Z")
        node.add_ports(1, fixed_degree="Y")
        node.add_ports(1, fixed_degree="Z")
        assert node.free_port_count(degree="Y") == 1
        assert node.first_free_port(degree="Y").fixed_degree == "Y"

    def test_free_ports_excludes_busy(self, roadm):
        roadm.connect_add_drop("AD:ROADM-I:0", "ROADM-II", 0, "lp-1")
        assert roadm.free_port_count() == 3
        assert roadm.first_free_port().port_id == "AD:ROADM-I:1"
