"""Tests for routing and wavelength assignment."""

import pytest

from repro.core.inventory import InventoryDatabase
from repro.core.rwa import RwaEngine
from repro.errors import (
    ConfigurationError,
    NoPathError,
    WavelengthBlockedError,
)
from repro.optical.wavelength import WavelengthGrid
from repro.optical.impairments import ReachModel
from repro.sim.randomness import RandomStreams
from repro.topo.graph import Link, NetworkGraph, Node
from repro.topo.testbed import build_testbed_graph
from repro.units import gbps


@pytest.fixture
def inventory():
    return InventoryDatabase(build_testbed_graph(), WavelengthGrid(4))


@pytest.fixture
def engine(inventory):
    return RwaEngine(inventory)


class TestPlanning:
    def test_shortest_route_first_fit(self, engine):
        plan = engine.plan("ROADM-I", "ROADM-IV", gbps(10))
        assert plan.path == ["ROADM-I", "ROADM-IV"]
        assert plan.hop_count == 1
        assert len(plan.segments) == 1
        assert plan.segments[0].channel == 0
        assert plan.regen_sites == []

    def test_same_endpoints_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.plan("ROADM-I", "ROADM-I", gbps(10))

    def test_first_fit_picks_lowest_free(self, engine, inventory):
        inventory.plant.dwdm_link("ROADM-I", "ROADM-IV").occupy(0, "x")
        plan = engine.plan("ROADM-I", "ROADM-IV", gbps(10))
        assert plan.segments[0].channel == 1

    def test_blocked_channel_forces_detour(self, engine, inventory):
        link = inventory.plant.dwdm_link("ROADM-I", "ROADM-IV")
        for channel in range(4):
            link.occupy(channel, "x")
        plan = engine.plan("ROADM-I", "ROADM-IV", gbps(10))
        assert plan.hop_count == 2  # direct link exhausted, detour taken

    def test_total_exhaustion_raises(self, inventory):
        engine = RwaEngine(inventory, k_paths=8)
        for link in inventory.graph.links:
            dwdm = inventory.plant.dwdm_link(link.a, link.b)
            for channel in range(4):
                dwdm.occupy(channel, "x")
        with pytest.raises(WavelengthBlockedError):
            engine.plan("ROADM-I", "ROADM-IV", gbps(10))

    def test_failed_route_filtered(self, engine, inventory):
        inventory.plant.cut_link("ROADM-I", "ROADM-IV")
        plan = engine.plan("ROADM-I", "ROADM-IV", gbps(10))
        assert plan.hop_count >= 2

    def test_all_routes_failed(self, inventory):
        engine = RwaEngine(inventory)
        for link in inventory.graph.links:
            if link.a.startswith("ROADM") and link.b.startswith("ROADM"):
                inventory.plant.cut_link(link.a, link.b)
        with pytest.raises(NoPathError):
            engine.plan("ROADM-I", "ROADM-IV", gbps(10))

    def test_excluded_links_respected(self, engine):
        plan = engine.plan(
            "ROADM-I",
            "ROADM-IV",
            gbps(10),
            excluded_links=[("ROADM-I", "ROADM-IV")],
        )
        assert ("ROADM-I", "ROADM-IV") not in [
            tuple(sorted(k)) for k in zip(plan.path, plan.path[1:])
        ]

    def test_srlg_disjoint_planning(self, engine):
        plan = engine.plan(
            "ROADM-I",
            "ROADM-IV",
            gbps(10),
            avoid_srlgs_of=["ROADM-I", "ROADM-III", "ROADM-IV"],
        )
        assert plan.path == ["ROADM-I", "ROADM-IV"]
        # And avoiding the direct path forces the long way.
        plan2 = engine.plan(
            "ROADM-I",
            "ROADM-IV",
            gbps(10),
            avoid_srlgs_of=["ROADM-I", "ROADM-IV"],
        )
        assert "ROADM-III" in plan2.path


class TestWavelengthContinuity:
    def test_continuity_across_hops(self, inventory):
        engine = RwaEngine(inventory)
        # Block channel 0 on one hop of the 2-hop route and the direct
        # link entirely, forcing channel continuity logic to pick 1.
        direct = inventory.plant.dwdm_link("ROADM-I", "ROADM-IV")
        for channel in range(4):
            direct.occupy(channel, "x")
        inventory.plant.dwdm_link("ROADM-I", "ROADM-III").occupy(0, "y")
        plan = engine.plan("ROADM-I", "ROADM-IV", gbps(10))
        assert plan.path == ["ROADM-I", "ROADM-III", "ROADM-IV"]
        assert plan.segments[0].channel == 1


class TestRandomAssignment:
    def test_random_needs_streams(self, inventory):
        with pytest.raises(ConfigurationError):
            RwaEngine(inventory, assignment="random")

    def test_random_channels_vary(self, inventory):
        engine = RwaEngine(
            inventory, assignment="random", streams=RandomStreams(3)
        )
        channels = {
            engine.plan("ROADM-I", "ROADM-IV", gbps(10)).segments[0].channel
            for _ in range(30)
        }
        assert len(channels) > 1

    def test_invalid_policy(self, inventory):
        with pytest.raises(ConfigurationError):
            RwaEngine(inventory, assignment="weird")

    def test_invalid_k(self, inventory):
        with pytest.raises(ConfigurationError):
            RwaEngine(inventory, k_paths=0)


class TestRegenSegmentation:
    @pytest.fixture
    def long_haul(self):
        graph = NetworkGraph()
        for name in ("A", "M", "B"):
            graph.add_node(Node(name))
        graph.add_link(Link("A", "M", length_km=2000.0))
        graph.add_link(Link("M", "B", length_km=2000.0))
        return InventoryDatabase(graph, WavelengthGrid(4))

    def test_regen_splits_segments(self, long_haul):
        engine = RwaEngine(long_haul, reach=ReachModel())
        plan = engine.plan("A", "B", gbps(10))
        assert plan.regen_sites == ["M"]
        assert len(plan.segments) == 2

    def test_segments_can_use_different_channels(self, long_haul):
        # Channel 0 busy only on the first leg: the second segment may
        # still use it because the regen breaks continuity.
        long_haul.plant.dwdm_link("A", "M").occupy(0, "x")
        engine = RwaEngine(long_haul)
        plan = engine.plan("A", "B", gbps(10))
        assert plan.segments[0].channel == 1
        assert plan.segments[1].channel == 0
