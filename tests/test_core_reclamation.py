"""Tests for OTN line reclamation (resource-pool re-use)."""

import pytest

from repro.core.connection import ConnectionState
from repro.core.reclamation import OtnLineReclaimer
from repro.errors import ConfigurationError
from repro.facade import build_griphon_testbed
from repro.units import HOUR


@pytest.fixture
def net():
    return build_griphon_testbed(seed=21, latency_cv=0.0, nte_interfaces=12)


def idle_line_scenario(net):
    """Create an OTN line, then free it: order 1G, tear it down."""
    svc = net.service_for("csp")
    conn = svc.request_connection("PREMISES-A", "PREMISES-C", 1)
    net.run()
    assert conn.state is ConnectionState.UP
    svc.teardown_connection(conn.connection_id)
    net.run()
    return svc


class TestSweep:
    def test_busy_line_kept(self, net):
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 1)
        net.run()
        reclaimer = OtnLineReclaimer(net.controller, holding_time_s=0.0)
        report = reclaimer.sweep()
        assert report.reclaimed == []
        assert report.kept_busy == len(net.inventory.otn_lines)
        assert conn.state is ConnectionState.UP

    def test_idle_line_kept_during_holding_time(self, net):
        idle_line_scenario(net)
        reclaimer = OtnLineReclaimer(net.controller, holding_time_s=1 * HOUR)
        report = reclaimer.sweep()
        assert report.reclaimed == []
        assert report.kept_young >= 1
        assert any(not line.owners() for line in net.inventory.otn_lines.values())

    def test_idle_line_reclaimed_after_holding_time(self, net):
        idle_line_scenario(net)
        lines_before = len(net.inventory.otn_lines)
        assert lines_before >= 1
        lightpaths_before = len(net.inventory.lightpaths)
        reclaimer = OtnLineReclaimer(net.controller, holding_time_s=1 * HOUR)
        reclaimer.sweep()  # marks idle-since
        net.run(until=net.sim.now + 2 * HOUR)
        report = reclaimer.sweep()
        net.run()
        assert len(report.reclaimed) == lines_before
        assert net.inventory.otn_lines == {}
        # The underlying wavelengths were torn down too.
        assert len(net.inventory.lightpaths) < lightpaths_before
        assert net.inventory.lightpaths == {}

    def test_reclaimed_resources_are_reusable(self, net):
        svc = idle_line_scenario(net)
        reclaimer = OtnLineReclaimer(net.controller, holding_time_s=0.0)
        reclaimer.sweep()
        net.run()
        # Everything free again: a fresh order must succeed.
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 1)
        net.run()
        assert conn.state is ConnectionState.UP

    def test_zero_holding_time_reclaims_immediately(self, net):
        idle_line_scenario(net)
        reclaimer = OtnLineReclaimer(net.controller, holding_time_s=0.0)
        report = reclaimer.sweep()
        assert report.reclaimed

    def test_busy_line_resets_idle_clock(self, net):
        svc = idle_line_scenario(net)
        reclaimer = OtnLineReclaimer(net.controller, holding_time_s=1 * HOUR)
        reclaimer.sweep()
        # The line gets used again before the holding time elapses...
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 1)
        net.run()
        reclaimer.sweep()
        svc.teardown_connection(conn.connection_id)
        net.run()
        # ...so the idle clock restarts: not reclaimed right away.
        report = reclaimer.sweep()
        assert report.reclaimed == []

    def test_negative_holding_time_rejected(self, net):
        with pytest.raises(ConfigurationError):
            OtnLineReclaimer(net.controller, holding_time_s=-1)


class TestPeriodic:
    def test_periodic_sweeps_reclaim(self, net):
        idle_line_scenario(net)
        reclaimer = OtnLineReclaimer(net.controller, holding_time_s=0.5 * HOUR)
        reclaimer.schedule_periodic(
            interval_s=0.25 * HOUR, stop_at=net.sim.now + 3 * HOUR
        )
        net.run()
        assert net.inventory.otn_lines == {}

    def test_periodic_validation(self, net):
        reclaimer = OtnLineReclaimer(net.controller)
        with pytest.raises(ConfigurationError):
            reclaimer.schedule_periodic(0, stop_at=net.sim.now + 10)
        with pytest.raises(ConfigurationError):
            reclaimer.schedule_periodic(10, stop_at=net.sim.now)


class TestReclaimedLineLeavesTheIndex:
    def test_reclaimed_line_is_never_offered_again(self, net):
        idle_line_scenario(net)
        inventory = net.inventory
        reclaimed = dict(inventory.otn_lines)
        assert reclaimed
        report = OtnLineReclaimer(net.controller, holding_time_s=0.0).sweep()
        assert sorted(report.reclaimed) == sorted(reclaimed)
        net.run()
        for line in reclaimed.values():
            for near, far in ((line.a, line.b), (line.b, line.a)):
                switch = inventory.otn_switches[near]
                assert line not in switch.lines_toward(far)
                assert line not in switch.lines
                for slots in (1, 8):
                    assert switch.best_line_toward(far, slots) is not line
            with pytest.raises(ConfigurationError):
                net.controller.protection.line(line.line_id)
        # A new circuit on the same hops stands up fresh lines.
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 1)
        net.run()
        assert conn.state is ConnectionState.UP
        assert inventory.otn_lines
        assert not set(inventory.otn_lines) & set(reclaimed)
