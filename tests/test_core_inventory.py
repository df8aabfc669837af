"""Tests for the controller's inventory database."""

import pytest

from repro.core.inventory import InventoryDatabase
from repro.errors import ConfigurationError, ResourceError, TopologyError
from repro.optical.lightpath import Lightpath, Segment
from repro.optical.wavelength import WavelengthGrid
from repro.topo.testbed import build_testbed_graph
from repro.units import ODU_LEVELS, gbps


@pytest.fixture
def inventory():
    return InventoryDatabase(build_testbed_graph(), WavelengthGrid(8))


class TestEquipmentInstallation:
    def test_roadm_degrees_match_topology(self, inventory):
        roadm = inventory.install_roadm("ROADM-I")
        # ROADM-I faces three ROADMs plus PREMISES-A.
        assert roadm.degrees == {
            "ROADM-II",
            "ROADM-III",
            "ROADM-IV",
            "PREMISES-A",
        }

    def test_duplicate_roadm_rejected(self, inventory):
        inventory.install_roadm("ROADM-I")
        with pytest.raises(ConfigurationError):
            inventory.install_roadm("ROADM-I")

    def test_transponders_need_roadm(self, inventory):
        with pytest.raises(ConfigurationError):
            inventory.install_transponders("ROADM-I", gbps(10), 2)
        inventory.install_roadm("ROADM-I")
        inventory.install_transponders("ROADM-I", gbps(10), 2)
        assert inventory.transponders["ROADM-I"].free_count(gbps(10)) == 2

    def test_regens_need_roadm(self, inventory):
        with pytest.raises(ConfigurationError):
            inventory.install_regens("ROADM-I", gbps(10), 1)

    def test_fxc_installation(self, inventory):
        fxc = inventory.install_fxc("ROADM-I", port_count=8)
        assert fxc.port_count == 8
        with pytest.raises(ConfigurationError):
            inventory.install_fxc("ROADM-I")

    def test_nte_installation_and_pop(self, inventory):
        inventory.install_nte("PREMISES-A", "ROADM-I")
        assert inventory.pop_of("PREMISES-A") == "ROADM-I"
        with pytest.raises(ConfigurationError):
            inventory.install_nte("PREMISES-A", "ROADM-I")

    def test_nte_requires_known_pop(self, inventory):
        with pytest.raises(TopologyError):
            inventory.install_nte("PREMISES-X", "ROADM-X")

    def test_unknown_premises_pop(self, inventory):
        with pytest.raises(ResourceError):
            inventory.pop_of("PREMISES-GHOST")

    def test_otn_line_requires_switches(self, inventory):
        with pytest.raises(ConfigurationError):
            inventory.create_otn_line("ROADM-I", "ROADM-IV")
        inventory.install_otn_switch("ROADM-I")
        inventory.install_otn_switch("ROADM-IV")
        line = inventory.create_otn_line(
            "ROADM-I", "ROADM-IV", level=ODU_LEVELS["ODU2"]
        )
        assert line.line_id in inventory.otn_lines
        assert line in inventory.otn_switches["ROADM-I"].lines

    def test_otn_line_ids_unique(self, inventory):
        inventory.install_otn_switch("ROADM-I")
        inventory.install_otn_switch("ROADM-IV")
        a = inventory.create_otn_line("ROADM-I", "ROADM-IV")
        b = inventory.create_otn_line("ROADM-I", "ROADM-IV")
        assert a.line_id != b.line_id


class TestRegistry:
    def make_lightpath(self, inventory):
        return Lightpath(
            inventory.next_lightpath_id(),
            ["ROADM-I", "ROADM-IV"],
            gbps(10),
            segments=[Segment(["ROADM-I", "ROADM-IV"], 0)],
        )

    def test_lightpath_register_forget(self, inventory):
        lp = self.make_lightpath(inventory)
        inventory.register_lightpath(lp)
        assert lp.lightpath_id in inventory.lightpaths
        inventory.forget_lightpath(lp.lightpath_id)
        assert lp.lightpath_id not in inventory.lightpaths

    def test_duplicate_lightpath_rejected(self, inventory):
        lp = self.make_lightpath(inventory)
        inventory.register_lightpath(lp)
        with pytest.raises(ConfigurationError):
            inventory.register_lightpath(lp)

    def test_forget_unknown_lightpath(self, inventory):
        with pytest.raises(ResourceError):
            inventory.forget_lightpath("lp-ghost")

    def test_ids_monotonic(self, inventory):
        assert inventory.next_lightpath_id() == "lp-0"
        assert inventory.next_lightpath_id() == "lp-1"
        assert inventory.next_circuit_id() == "ckt-0"

    def test_lightpaths_using_link(self, inventory):
        lp = self.make_lightpath(inventory)
        inventory.register_lightpath(lp)
        assert inventory.lightpaths_using_link("ROADM-IV", "ROADM-I") == [lp]
        assert inventory.lightpaths_using_link("ROADM-I", "ROADM-III") == []

    def test_roadm_utilization(self, inventory):
        inventory.install_roadm("ROADM-I", add_drop_ports=4)
        roadm = inventory.roadms["ROADM-I"]
        roadm.connect_add_drop("AD:ROADM-I:0", "ROADM-IV", 0, "lp-0")
        assert inventory.roadm_utilization() == {"ROADM-I": 0.25}
