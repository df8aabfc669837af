"""Tests for availability math and the fiber-cut injector."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.connection import Connection, ConnectionKind, ConnectionState
from repro.errors import ConfigurationError
from repro.facade import build_griphon_testbed
from repro.metrics import (
    availability_from_mtbf_mttr,
    downtime_minutes_per_year,
    fleet_availability,
    measured_availability,
    nines,
)
from repro.units import DAY, HOUR, WEEK, gbps
from repro.workload import FiberCutInjector


class TestAvailabilityMath:
    def test_zero_mttr_is_perfect(self):
        assert availability_from_mtbf_mttr(1000.0, 0.0) == 1.0

    def test_known_value(self):
        # MTBF 99 h, MTTR 1 h -> 99%.
        assert availability_from_mtbf_mttr(99.0, 1.0) == pytest.approx(0.99)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            availability_from_mtbf_mttr(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            availability_from_mtbf_mttr(1.0, -1.0)

    def test_downtime_minutes(self):
        # Three nines ~= 526 minutes per year.
        assert downtime_minutes_per_year(0.999) == pytest.approx(525.96, rel=1e-3)

    def test_downtime_validation(self):
        with pytest.raises(ConfigurationError):
            downtime_minutes_per_year(1.5)

    def test_nines(self):
        assert nines(0.999) == pytest.approx(3.0)
        assert nines(0.0) == 0.0

    def test_nines_validation(self):
        with pytest.raises(ConfigurationError):
            nines(1.0)

    @given(
        mtbf=st.floats(min_value=1.0, max_value=1e9),
        mttr=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_availability_bounds(self, mtbf, mttr):
        value = availability_from_mtbf_mttr(mtbf, mttr)
        assert 0.0 < value <= 1.0

    def test_mttr_dominates_comparison(self):
        """Same cut rate, different restoration: GRIPhoN's one-minute
        MTTR beats manual repair's hours by orders of magnitude of
        downtime."""
        mtbf = 2 * WEEK
        griphon = availability_from_mtbf_mttr(mtbf, 64.0)
        manual = availability_from_mtbf_mttr(mtbf, 8 * HOUR)
        assert nines(griphon) - nines(manual) > 2.0


class TestMeasuredAvailability:
    def make_connection(self, outage_s):
        conn = Connection(
            "c", "csp", "A", "B", gbps(10), ConnectionKind.WAVELENGTH
        )
        conn.total_outage_s = outage_s
        return conn

    def test_no_outage_is_one(self):
        conn = self.make_connection(0.0)
        assert measured_availability(conn, 0.0, DAY) == 1.0

    def test_partial_outage(self):
        conn = self.make_connection(DAY / 4)
        assert measured_availability(conn, 0.0, DAY) == pytest.approx(0.75)

    def test_open_outage_counts_to_window_end(self):
        conn = self.make_connection(0.0)
        conn.begin_outage(DAY / 2)
        assert measured_availability(conn, 0.0, DAY) == pytest.approx(0.5)

    def test_outage_capped_at_window(self):
        conn = self.make_connection(10 * DAY)
        assert measured_availability(conn, 0.0, DAY) == 0.0

    def test_empty_window_rejected(self):
        conn = self.make_connection(0.0)
        with pytest.raises(ConfigurationError):
            measured_availability(conn, 5.0, 5.0)

    def test_fleet_mean(self):
        fleet = [self.make_connection(0.0), self.make_connection(DAY / 2)]
        assert fleet_availability(fleet, 0.0, DAY) == pytest.approx(0.75)

    def test_fleet_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            fleet_availability([], 0.0, DAY)


class TestFiberCutInjector:
    def test_cuts_and_repairs_over_a_month(self):
        net = build_griphon_testbed(seed=61, latency_cv=0.0)
        injector = FiberCutInjector(
            net.controller,
            net.streams,
            mean_time_between_cuts_s=2 * DAY,
            mean_repair_s=6 * HOUR,
            stop_at=28 * DAY,
        )
        net.run(until=35 * DAY)
        net.run()
        assert len(injector.records) > 5
        assert all(record.repaired_at is not None for record in injector.records)
        for record in injector.records:
            assert record.repair_duration >= 1 * HOUR
        # The plant is healthy again at the end.
        assert net.inventory.plant.failed_links() == []

    def test_connection_survives_the_month(self):
        net = build_griphon_testbed(seed=62, latency_cv=0.0)
        svc = net.service_for("csp")
        conn = svc.request_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        FiberCutInjector(
            net.controller,
            net.streams,
            mean_time_between_cuts_s=2 * DAY,
            stop_at=28 * DAY,
        )
        net.run(until=35 * DAY)
        net.run()
        assert conn.state is ConnectionState.UP
        availability = measured_availability(conn, conn.up_at, 35 * DAY)
        # Restoration keeps availability high despite ~14 cuts.
        assert availability > 0.99

    def test_validation(self):
        net = build_griphon_testbed(seed=63)
        with pytest.raises(ConfigurationError):
            FiberCutInjector(
                net.controller, net.streams, mean_time_between_cuts_s=0
            )
        with pytest.raises(ConfigurationError):
            FiberCutInjector(
                net.controller,
                net.streams,
                mean_time_between_cuts_s=DAY,
                mean_repair_s=0,
            )

    def test_never_cuts_access_links(self):
        net = build_griphon_testbed(seed=64, latency_cv=0.0)
        injector = FiberCutInjector(
            net.controller,
            net.streams,
            mean_time_between_cuts_s=HOUR,
            stop_at=2 * DAY,
        )
        net.run(until=3 * DAY)
        for record in injector.records:
            assert not any(
                node.startswith("PREMISES") for node in record.link
            )
