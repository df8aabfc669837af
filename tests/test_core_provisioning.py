"""Tests for lightpath claiming, rollback, and workflow timing."""

import pytest

from repro.core.inventory import InventoryDatabase
from repro.core.provisioning import LightpathProvisioner
from repro.core.rwa import RwaEngine
from repro.ems.latency import LatencyModel
from repro.ems.roadm_ems import RoadmEms
from repro.errors import TransponderUnavailableError
from repro.optical import LightpathState, WavelengthGrid
from repro.sim import Process, RandomStreams, Simulator
from repro.topo.testbed import build_testbed_graph
from repro.units import gbps


def make_stack(ots_at=None, ports=8, parallel_ems=False):
    """Inventory + engines on the testbed with deterministic latency."""
    inventory = InventoryDatabase(build_testbed_graph(), WavelengthGrid(8))
    for node in ("ROADM-I", "ROADM-II", "ROADM-III", "ROADM-IV"):
        inventory.install_roadm(node, add_drop_ports=ports)
        count = (ots_at or {}).get(node, 4)
        if count:
            inventory.install_transponders(node, gbps(10), count)
    latency = LatencyModel(RandomStreams(0), cv=0.0)
    roadm_ems = RoadmEms(inventory.plant, latency)
    provisioner = LightpathProvisioner(
        inventory, roadm_ems, latency, parallel_ems=parallel_ems
    )
    rwa = RwaEngine(inventory)
    return inventory, provisioner, rwa


class TestClaim:
    def test_claim_allocates_everything(self):
        inventory, provisioner, rwa = make_stack()
        plan = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        lightpath = provisioner.claim(plan)
        assert lightpath.lightpath_id in inventory.lightpaths
        assert len(lightpath.ot_ids) == 2
        link = inventory.plant.dwdm_link("ROADM-I", "ROADM-IV")
        assert link.owner_of(0) == lightpath.lightpath_id
        roadm = inventory.roadms["ROADM-I"]
        assert roadm.channel_owner("ROADM-IV", 0) == lightpath.lightpath_id

    def test_claim_express_at_intermediates(self):
        inventory, provisioner, rwa = make_stack()
        plan = rwa.plan(
            "ROADM-I",
            "ROADM-IV",
            gbps(10),
            excluded_links=[("ROADM-I", "ROADM-IV")],
        )
        lightpath = provisioner.claim(plan)
        middle = plan.path[1]
        roadm = inventory.roadms[middle]
        assert (
            roadm.channel_owner(plan.path[0], plan.segments[0].channel)
            == lightpath.lightpath_id
        )

    def test_claim_rolls_back_on_missing_ot(self):
        inventory, provisioner, rwa = make_stack(
            ots_at={"ROADM-I": 4, "ROADM-IV": 0}
        )
        plan = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        with pytest.raises(TransponderUnavailableError):
            provisioner.claim(plan)
        # Nothing must remain allocated.
        assert inventory.lightpaths == {}
        assert inventory.plant.dwdm_link("ROADM-I", "ROADM-IV").occupied_channels == set()
        assert all(
            not ot.in_use
            for ot in inventory.transponders["ROADM-I"].transponders
        )

    def test_claim_rolls_back_on_missing_port(self):
        inventory, provisioner, rwa = make_stack(ports=1)
        plan = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        roadm = inventory.roadms["ROADM-IV"]
        roadm.connect_add_drop(roadm.ports[0].port_id, "ROADM-I", 5, "squatter")
        with pytest.raises(TransponderUnavailableError):
            provisioner.claim(plan)
        assert inventory.lightpaths == {}

    def test_reuse_ots(self):
        inventory, provisioner, rwa = make_stack()
        plan = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        first = provisioner.claim(plan)
        ot_ids = list(first.ot_ids)
        provisioner.release(first)
        plan2 = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        second = provisioner.claim(plan2, reuse_ots=ot_ids)
        assert second.ot_ids == ot_ids

    def test_reuse_ots_needs_two(self):
        inventory, provisioner, rwa = make_stack()
        plan = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        with pytest.raises(TransponderUnavailableError):
            provisioner.claim(plan, reuse_ots=["OT:ROADM-I:0"])

    def test_release_frees_everything(self):
        inventory, provisioner, rwa = make_stack()
        plan = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        lightpath = provisioner.claim(plan)
        provisioner.release(lightpath)
        assert inventory.lightpaths == {}
        link = inventory.plant.dwdm_link("ROADM-I", "ROADM-IV")
        assert link.occupied_channels == set()
        roadm = inventory.roadms["ROADM-I"]
        assert roadm.channel_owner("ROADM-IV", 0) is None


class TestWorkflowTiming:
    def run_setup(self, provisioner, rwa, path_links=()):
        sim = Simulator()
        plan = rwa.plan(
            "ROADM-I", "ROADM-IV", gbps(10), excluded_links=path_links
        )
        lightpath = provisioner.claim(plan)
        Process(sim, provisioner.setup_workflow(lightpath))
        sim.run()
        return lightpath, sim.now

    def test_one_hop_setup_matches_table2(self):
        _, provisioner, rwa = make_stack()
        lightpath, elapsed = self.run_setup(provisioner, rwa)
        assert lightpath.state is LightpathState.UP
        assert elapsed == pytest.approx(62.35)

    def test_two_hop_setup_slower(self):
        _, provisioner, rwa = make_stack()
        _, one_hop = self.run_setup(provisioner, rwa)
        _, two_hop = self.run_setup(
            provisioner, rwa, path_links=[("ROADM-I", "ROADM-IV")]
        )
        assert two_hop > one_hop
        assert 2.0 < (two_hop - one_hop) < 8.0

    def test_teardown_is_about_ten_seconds(self):
        _, provisioner, rwa = make_stack()
        sim = Simulator()
        plan = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        lightpath = provisioner.claim(plan)
        Process(sim, provisioner.setup_workflow(lightpath))
        sim.run()
        start = sim.now
        Process(sim, provisioner.teardown_workflow(lightpath))
        sim.run()
        assert sim.now - start == pytest.approx(10.0)
        assert lightpath.state is LightpathState.RELEASED

    def test_parallel_ems_is_faster(self):
        _, sequential, rwa_a = make_stack()
        _, parallel, rwa_b = make_stack(parallel_ems=True)
        _, seq_time = self.run_setup(sequential, rwa_a)
        _, par_time = self.run_setup(parallel, rwa_b)
        assert par_time < seq_time
        # Parallelizing per-stage can't beat the longest single step sum.
        assert par_time > 20.0

    def test_setup_steps_structure(self):
        _, provisioner, rwa = make_stack()
        plan = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        lightpath = provisioner.claim(plan)
        steps = provisioner.setup_steps(lightpath)
        stages = [stage for stage, _, _ in steps]
        assert stages[0] == "order"
        assert stages[-1] == "verify"
        assert stages.count("tune") == 2
        assert stages.count("equalize") == lightpath.hop_count

    def test_total_duration_sequential_vs_parallel(self):
        _, provisioner, rwa = make_stack()
        plan = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        lightpath = provisioner.claim(plan)
        steps = provisioner.setup_steps(lightpath)
        sequential_total = provisioner.total_duration(steps)
        assert sequential_total == pytest.approx(
            sum(duration for _, _, duration in steps)
        )

    def test_on_up_callback(self):
        _, provisioner, rwa = make_stack()
        sim = Simulator()
        plan = rwa.plan("ROADM-I", "ROADM-IV", gbps(10))
        lightpath = provisioner.claim(plan)
        seen = []
        Process(sim, provisioner.setup_workflow(lightpath, on_up=seen.append))
        sim.run()
        assert seen == [lightpath]
