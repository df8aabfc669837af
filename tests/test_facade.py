"""Tests for the network builders and the public package surface."""

import pytest

import repro
from repro import facade
from repro.facade import build_griphon_backbone, build_griphon_testbed
from repro.core.connection import ConnectionState
from repro.units import gbps


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_exports(self):
        assert callable(facade.build_griphon_testbed)
        assert callable(facade.build_griphon_backbone)


class TestTestbedBuilder:
    @pytest.fixture(scope="class")
    def net(self):
        return build_griphon_testbed(seed=7, latency_cv=0.0)

    def test_four_roadms(self, net):
        assert len(net.inventory.roadms) == 4

    def test_transponder_rates(self, net):
        rates = net.controller.wavelength_rates()
        assert rates == [gbps(10), gbps(40)]

    def test_transponder_rates_follow_later_installs(self):
        net = build_griphon_testbed(seed=7, latency_cv=0.0)
        net.inventory.install_transponders("ROADM-II", gbps(100), 1)
        assert net.controller.wavelength_rates() == [
            gbps(10), gbps(40), gbps(100)
        ]

    def test_three_premises_with_ntes(self, net):
        assert sorted(net.inventory.ntes) == [
            "PREMISES-A",
            "PREMISES-B",
            "PREMISES-C",
        ]

    def test_fxcs_at_pops_and_premises(self, net):
        assert len(net.inventory.fxcs) == 7

    def test_otn_switches_installed(self, net):
        assert len(net.inventory.otn_switches) == 4

    def test_without_otn(self):
        net = build_griphon_testbed(seed=0, with_otn=False)
        assert net.inventory.otn_switches == {}

    def test_no_otn_rounds_up_to_wavelength(self):
        net = build_griphon_testbed(seed=0, with_otn=False, latency_cv=0.0)
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-B", 12)
        net.run()
        assert conn.state is ConnectionState.UP
        assert len(conn.lightpath_ids) == 2
        assert not conn.circuit_ids


class TestBackboneBuilder:
    @pytest.fixture(scope="class")
    def net(self):
        return build_griphon_backbone(seed=7, latency_cv=0.0)

    def test_twelve_roadms(self, net):
        assert len(net.inventory.roadms) == 12

    def test_five_data_centers(self, net):
        assert len(net.inventory.ntes) == 5

    def test_transcontinental_connection_uses_regens(self):
        net = build_griphon_backbone(seed=7, latency_cv=0.0)
        svc = net.service_for("csp")
        conn = svc.request_connection("DC-EAST", "DC-WEST", 10)
        net.run()
        assert conn.state is ConnectionState.UP
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        km = net.inventory.graph.path_length_km(lightpath.path)
        if km > 2500:
            assert lightpath.regen_sites

    def test_setup_time_longer_than_testbed(self):
        """More hops and longer spans mean slower setup, same order."""
        net = build_griphon_backbone(seed=7, latency_cv=0.0)
        svc = net.service_for("csp")
        conn = svc.request_connection("DC-EAST", "DC-WEST", 10)
        net.run()
        assert 60 <= conn.setup_duration <= 300


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run(seed):
            net = build_griphon_testbed(seed=seed)
            svc = net.service_for("csp")
            conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
            net.run()
            return conn.setup_duration

        assert run(5) == run(5)
        assert run(5) != run(6)
