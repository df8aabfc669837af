"""Tests for provisioning lightpaths that need OEO regeneration."""

import pytest

from repro.facade import build_griphon_backbone
from repro.core.connection import ConnectionState
from repro.core.inventory import InventoryDatabase
from repro.core.provisioning import LightpathProvisioner
from repro.core.rwa import RwaEngine
from repro.ems.latency import LatencyModel
from repro.ems.roadm_ems import RoadmEms
from repro.errors import TransponderUnavailableError
from repro.faults.audit import audit_network
from repro.optical.lightpath import LightpathState
from repro.optical.wavelength import WavelengthGrid
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.randomness import RandomStreams
from repro.topo.graph import Link, NetworkGraph, Node
from repro.units import gbps


def long_haul_stack(regens_at_m=2):
    """A 2x2000 km chain A-M-B that forces a regen at M for 10G."""
    graph = NetworkGraph()
    for name in ("A", "M", "B"):
        graph.add_node(Node(name))
    graph.add_link(Link("A", "M", length_km=2000.0))
    graph.add_link(Link("M", "B", length_km=2000.0))
    inventory = InventoryDatabase(graph, WavelengthGrid(8))
    for node in ("A", "M", "B"):
        inventory.install_roadm(node, add_drop_ports=8)
        inventory.install_transponders(node, gbps(10), 4)
    if regens_at_m:
        inventory.install_regens("M", gbps(10), regens_at_m)
    latency = LatencyModel(RandomStreams(0), cv=0.0)
    provisioner = LightpathProvisioner(
        inventory, RoadmEms(inventory.plant, latency), latency
    )
    return inventory, provisioner, RwaEngine(inventory)


class TestRegenClaim:
    def test_regen_allocated_and_ports_taken(self):
        inventory, provisioner, rwa = long_haul_stack()
        plan = rwa.plan("A", "B", gbps(10))
        assert plan.regen_sites == ["M"]
        lightpath = provisioner.claim(plan)
        assert len(lightpath.regen_ids) == 1
        regen = inventory.regens["M"].get("REGEN:M:0")
        assert regen.in_use
        # The regen site uses two add/drop ports (drop + re-add).
        roadm = inventory.roadms["M"]
        used_ports = roadm.connected_ports()
        assert len(used_ports) == 2
        assert roadm.free_port_count() == roadm.port_count - 2

    def test_no_regen_available_blocks_and_rolls_back(self):
        inventory, provisioner, rwa = long_haul_stack(regens_at_m=0)
        plan = rwa.plan("A", "B", gbps(10))
        with pytest.raises(TransponderUnavailableError):
            provisioner.claim(plan)
        assert inventory.lightpaths == {}
        assert all(
            pool.free_count() == pool.installed()
            for pool in inventory.transponders.values()
        )

    def test_segments_occupy_distinct_links(self):
        inventory, provisioner, rwa = long_haul_stack()
        # Force different channels per segment.
        inventory.plant.dwdm_link("A", "M").occupy(0, "blocker")
        plan = rwa.plan("A", "B", gbps(10))
        lightpath = provisioner.claim(plan)
        assert lightpath.segments[0].channel == 1
        assert lightpath.segments[1].channel == 0
        am = inventory.plant.dwdm_link("A", "M")
        mb = inventory.plant.dwdm_link("M", "B")
        assert am.owner_of(1) == lightpath.lightpath_id
        assert mb.owner_of(0) == lightpath.lightpath_id

    def test_release_frees_regen(self):
        inventory, provisioner, rwa = long_haul_stack()
        lightpath = provisioner.claim(rwa.plan("A", "B", gbps(10)))
        provisioner.release(lightpath)
        regens = inventory.regens["M"]
        assert regens.free_count() == regens.installed()
        roadm = inventory.roadms["M"]
        assert roadm.free_port_count() == roadm.port_count

    def test_teardown_frees_route_ports_and_nothing_else(self):
        """Release looks for the lightpath's add/drop ports on its own
        route only: both ends and every regen site come back, a port
        someone else holds on a route ROADM stays, and nothing leaks."""
        net = build_griphon_backbone(seed=7, latency_cv=0.0)
        squatted = net.inventory.roadms["CHI"]
        squatter_port = squatted.connect_add_drop(
            f"AD:CHI:{squatted.port_count - 1}", "STL", 39, "squatter"
        )
        svc = net.service_for("csp")
        conn = svc.request_connection("DC-EAST", "DC-WEST", 10)
        net.run()
        assert conn.state is ConnectionState.UP
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        assert "CHI" in lightpath.regen_sites

        def held(node):
            return [
                port.port_id
                for port in net.inventory.roadms[node].connected_ports()
                if port.owner == lightpath.lightpath_id
            ]

        ends = [lightpath.source, lightpath.destination]
        assert [len(held(node)) for node in ends] == [1, 1]
        assert [len(held(node)) for node in lightpath.regen_sites] == [
            2 for _ in lightpath.regen_sites
        ]
        svc.teardown_connection(conn.connection_id)
        net.run()
        assert conn.state is ConnectionState.RELEASED
        assert [held(node) for node in lightpath.path] == [
            [] for _ in lightpath.path
        ]
        assert squatted.port(squatter_port.port_id).owner == "squatter"
        report = audit_network(net.controller)
        assert [v.owner for v in report.violations] == ["squatter"]
        squatted.disconnect_add_drop(squatter_port.port_id, "squatter")
        assert audit_network(net.controller).ok


class TestRegenWorkflow:
    def test_regen_hop_costs_two_add_drops(self):
        _, provisioner, rwa = long_haul_stack()
        lightpath = provisioner.claim(rwa.plan("A", "B", gbps(10)))
        steps = provisioner.setup_steps(lightpath)
        regen_steps = [label for _, label, _ in steps if "regen" in label]
        assert regen_steps == ["regen-drop@M", "regen-add@M"]

    def test_regen_path_slower_than_express_path(self):
        """OEO at an intermediate node takes longer to configure than an
        optical express pass-through."""
        _, provisioner, rwa = long_haul_stack()
        sim = Simulator()
        lightpath = provisioner.claim(rwa.plan("A", "B", gbps(10)))
        Process(sim, provisioner.setup_workflow(lightpath))
        sim.run()
        regen_time = sim.now

        # Same hop count, short links: express instead of regen.
        graph = NetworkGraph()
        for name in ("A", "M", "B"):
            graph.add_node(Node(name))
        graph.add_link(Link("A", "M", length_km=100.0))
        graph.add_link(Link("M", "B", length_km=100.0))
        inventory = InventoryDatabase(graph, WavelengthGrid(8))
        for node in ("A", "M", "B"):
            inventory.install_roadm(node, add_drop_ports=8)
            inventory.install_transponders(node, gbps(10), 4)
        latency = LatencyModel(RandomStreams(0), cv=0.0)
        short_provisioner = LightpathProvisioner(
            inventory,
            RoadmEms(inventory.plant, latency),
            latency,
        )
        short_rwa = RwaEngine(inventory)
        sim2 = Simulator()
        lightpath2 = short_provisioner.claim(short_rwa.plan("A", "B", gbps(10)))
        Process(sim2, short_provisioner.setup_workflow(lightpath2))
        sim2.run()
        express_time = sim2.now
        assert regen_time > express_time

    def test_full_lifecycle_with_regen(self):
        _, provisioner, rwa = long_haul_stack()
        sim = Simulator()
        lightpath = provisioner.claim(rwa.plan("A", "B", gbps(10)))
        Process(sim, provisioner.setup_workflow(lightpath))
        sim.run()
        assert lightpath.state is LightpathState.UP
        Process(sim, provisioner.teardown_workflow(lightpath))
        sim.run()
        assert lightpath.state is LightpathState.RELEASED
