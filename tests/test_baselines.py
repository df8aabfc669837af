"""Tests for the baseline systems: manual ops, 1+1, static, store-and-forward."""

import pytest

from repro.baselines import (
    ManualOperations,
    OnePlusOneProtection,
    StaticProvisioningPlan,
    StoreForwardScheduler,
)
from repro.core.inventory import InventoryDatabase
from repro.core.provisioning import LightpathProvisioner
from repro.core.rwa import RwaEngine
from repro.ems.latency import LatencyModel
from repro.ems.roadm_ems import RoadmEms
from repro.errors import ConfigurationError, ResourceError
from repro.optical import WavelengthGrid
from repro.sim import RandomStreams
from repro.topo.testbed import build_testbed_graph
from repro.units import DAY, HOUR, WEEK, gbps


class TestManualOperations:
    def test_provisioning_takes_weeks(self):
        ops = ManualOperations(RandomStreams(1))
        for _ in range(20):
            t = ops.provisioning_time()
            assert 2 * WEEK <= t <= 8 * WEEK

    def test_restoration_takes_hours(self):
        ops = ManualOperations(RandomStreams(1))
        for _ in range(20):
            t = ops.restoration_time()
            assert 4 * HOUR <= t <= 12 * HOUR

    def test_maintenance_impact_is_whole_window(self):
        ops = ManualOperations(RandomStreams(1))
        assert ops.maintenance_impact(2 * HOUR) == 2 * HOUR
        with pytest.raises(ConfigurationError):
            ops.maintenance_impact(-1)

    def test_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            ManualOperations(RandomStreams(0), provisioning_weeks_min=0)
        with pytest.raises(ConfigurationError):
            ManualOperations(
                RandomStreams(0),
                restoration_hours_min=5,
                restoration_hours_max=4,
            )


class TestStaticProvisioning:
    def test_peak_sizing(self):
        plan = StaticProvisioningPlan([gbps(3), gbps(12), gbps(7)])
        assert plan.peak_demand_bps == gbps(12)
        assert plan.leased_capacity_bps == gbps(20)  # two 10G circuits

    def test_headroom(self):
        plan = StaticProvisioningPlan([gbps(10)], headroom=0.2)
        assert plan.leased_capacity_bps == gbps(20)

    def test_capacity_accounting(self):
        plan = StaticProvisioningPlan([gbps(5), gbps(10)], granularity_bps=gbps(10))
        assert plan.capacity_hours() == pytest.approx(gbps(10) * 2)
        assert plan.used_capacity_hours() == pytest.approx(gbps(15))
        assert plan.utilization() == pytest.approx(0.75)
        assert plan.stranded_capacity_hours() == pytest.approx(gbps(5))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StaticProvisioningPlan([])
        with pytest.raises(ConfigurationError):
            StaticProvisioningPlan([-1.0])
        with pytest.raises(ConfigurationError):
            StaticProvisioningPlan([1.0], granularity_bps=0)
        with pytest.raises(ConfigurationError):
            StaticProvisioningPlan([1.0], headroom=-0.1)


class TestOnePlusOne:
    def make(self):
        inventory = InventoryDatabase(build_testbed_graph(), WavelengthGrid(8))
        for node in ("ROADM-I", "ROADM-II", "ROADM-III", "ROADM-IV"):
            inventory.install_roadm(node, add_drop_ports=8)
            inventory.install_transponders(node, gbps(10), 4)
        latency = LatencyModel(RandomStreams(0), cv=0.0)
        provisioner = LightpathProvisioner(
            inventory, RoadmEms(inventory.plant, latency), latency
        )
        rwa = RwaEngine(inventory)
        return inventory, OnePlusOneProtection(inventory, rwa, provisioner)

    def test_pair_is_disjoint(self):
        _, protection = self.make()
        pair = protection.claim_pair("ROADM-I", "ROADM-IV", gbps(10))
        working_links = set(zip(pair.working.path, pair.working.path[1:]))
        protect_links = set(zip(pair.protection.path, pair.protection.path[1:]))
        assert not (working_links & protect_links)

    def test_double_resource_cost(self):
        _, protection = self.make()
        protection.claim_pair("ROADM-I", "ROADM-IV", gbps(10))
        assert protection.total_resource_cost() == 4  # 2 OTs per leg
        assert protection.pairs[0].resource_cost_factor == 2.0

    def test_switchover_is_fast(self):
        inventory, protection = self.make()
        pair = protection.claim_pair("ROADM-I", "ROADM-IV", gbps(10))
        inventory.plant.cut_link(pair.working.path[0], pair.working.path[1])
        outage = protection.on_failure(pair)
        assert outage == pytest.approx(0.050)
        assert pair.active == "protection"

    def test_double_failure_not_covered(self):
        inventory, protection = self.make()
        pair = protection.claim_pair("ROADM-I", "ROADM-IV", gbps(10))
        for path in (pair.working.path, pair.protection.path):
            for u, v in zip(path, path[1:]):
                inventory.plant.cut_link(u, v)
        assert protection.on_failure(pair) is None

    def test_release_pair(self):
        inventory, protection = self.make()
        pair = protection.claim_pair("ROADM-I", "ROADM-IV", gbps(10))
        protection.release_pair(pair)
        assert inventory.lightpaths == {}
        with pytest.raises(ResourceError):
            protection.release_pair(pair)

    def test_failed_protection_leg_rolls_back_working(self):
        inventory, protection = self.make()
        # Use up ROADM-IV's transponders so the second leg cannot claim.
        pool = inventory.transponders["ROADM-IV"]
        for index in range(3):
            pool.allocate(gbps(10), f"hog-{index}")
        from repro.errors import TransponderUnavailableError

        with pytest.raises(TransponderUnavailableError):
            protection.claim_pair("ROADM-I", "ROADM-IV", gbps(10))
        # Working leg must have been rolled back.
        assert inventory.lightpaths == {}


class TestStoreForward:
    def test_constant_profile(self):
        scheduler = StoreForwardScheduler({"h1": [gbps(1)] * 24})
        t = scheduler.hop_completion_time("h1", gbps(1) * 3600)
        assert t == pytest.approx(3600.0)

    def test_waits_through_dead_hours(self):
        profile = [0.0] * 12 + [gbps(1)] * 12
        scheduler = StoreForwardScheduler({"h1": profile})
        t = scheduler.hop_completion_time("h1", gbps(1) * 3600)
        assert t == pytest.approx(12 * HOUR + 3600)

    def test_start_offset(self):
        profile = [0.0] * 12 + [gbps(1)] * 12
        scheduler = StoreForwardScheduler({"h1": profile})
        t = scheduler.hop_completion_time("h1", gbps(1) * 3600, start_s=12 * HOUR)
        assert t == pytest.approx(3600.0)

    def test_profile_repeats_daily(self):
        profile = [gbps(1)] + [0.0] * 23
        scheduler = StoreForwardScheduler({"h1": profile})
        # Two hours of work at 1G available one hour per day.
        t = scheduler.hop_completion_time("h1", gbps(1) * 2 * 3600)
        assert t == pytest.approx(DAY + HOUR)

    def test_path_bottleneck(self):
        scheduler = StoreForwardScheduler(
            {"fast": [gbps(10)] * 24, "slow": [gbps(1)] * 24}
        )
        t = scheduler.path_completion_time(["fast", "slow"], gbps(1) * 3600)
        assert t == pytest.approx(3600.0)

    def test_best_path(self):
        scheduler = StoreForwardScheduler(
            {"direct": [gbps(0.5)] * 24, "via1": [gbps(2)] * 24, "via2": [gbps(2)] * 24}
        )
        path, t = scheduler.best_path_completion(
            [["direct"], ["via1", "via2"]], gbps(1) * 3600
        )
        assert path == ["via1", "via2"]
        assert t == pytest.approx(1800.0)

    def test_all_zero_profile_rejected(self):
        scheduler = StoreForwardScheduler({"h1": [0.0] * 24})
        with pytest.raises(ValueError):
            scheduler.hop_completion_time("h1", 1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StoreForwardScheduler({})
        with pytest.raises(ConfigurationError):
            StoreForwardScheduler({"h": []})
        with pytest.raises(ConfigurationError):
            StoreForwardScheduler({"h": [-1.0]})
        scheduler = StoreForwardScheduler({"h": [1.0]})
        with pytest.raises(ConfigurationError):
            scheduler.hop_completion_time("ghost", 1.0)
        with pytest.raises(ConfigurationError):
            scheduler.path_completion_time([], 1.0)
