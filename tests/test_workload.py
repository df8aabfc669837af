"""Tests for arrival processes, demand curves, and bulk jobs."""

import pytest

from repro.core.connection import ConnectionState
from repro.errors import ConfigurationError
from repro.facade import build_griphon_testbed
from repro.sim import RandomStreams, Simulator
from repro.units import DAY, HOUR, TERABYTE
from repro.workload import (
    BulkTransferWorkload,
    DiurnalProfile,
    InteractiveDemand,
    PoissonArrivals,
)


class TestDiurnalProfile:
    def test_peak_at_peak_hour(self):
        profile = DiurnalProfile(base=10.0, amplitude=0.5, peak_hour=14.0)
        assert profile.rate(14 * HOUR) == pytest.approx(15.0)

    def test_trough_opposite_peak(self):
        profile = DiurnalProfile(base=10.0, amplitude=0.5, peak_hour=14.0)
        assert profile.rate(2 * HOUR) == pytest.approx(5.0)

    def test_daily_periodicity(self):
        profile = DiurnalProfile(base=3.0, amplitude=0.3)
        assert profile.rate(5 * HOUR) == pytest.approx(profile.rate(5 * HOUR + DAY))

    def test_bounds(self):
        profile = DiurnalProfile(base=10.0, amplitude=0.8)
        for hour in range(24):
            rate = profile.rate(hour * HOUR)
            assert profile.trough() - 1e-9 <= rate <= profile.peak() + 1e-9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalProfile(base=0)
        with pytest.raises(ConfigurationError):
            DiurnalProfile(base=1, amplitude=1.5)


class TestPoissonArrivals:
    def test_constant_rate_counts(self):
        sim = Simulator()
        hits = []
        PoissonArrivals(
            sim,
            RandomStreams(1),
            hits.append,
            rate_per_s=1.0,
            stop_at=1000.0,
        )
        sim.run(until=1000.0)
        # ~1000 arrivals expected; allow generous slack.
        assert 850 <= len(hits) <= 1150

    def test_thinned_rate_lower(self):
        sim = Simulator()
        hits = []
        profile = DiurnalProfile(base=0.5, amplitude=0.5)
        PoissonArrivals(
            sim,
            RandomStreams(2),
            hits.append,
            rate_fn=profile.rate,
            max_rate=profile.peak(),
            stop_at=2000.0,
        )
        sim.run(until=2000.0)
        # The first 2000 s sit near the diurnal trough (peak is at 14:00),
        # where the rate is about 0.28/s -> ~560 arrivals; far below the
        # unthinned max-rate bound of 0.75/s (1500 arrivals).
        assert 420 <= len(hits) <= 720

    def test_stop_at_honored(self):
        sim = Simulator()
        hits = []
        PoissonArrivals(
            sim, RandomStreams(3), hits.append, rate_per_s=5.0, stop_at=10.0
        )
        sim.run()
        assert all(t <= 10.0 for t in hits)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            PoissonArrivals(sim, RandomStreams(0), print)
        with pytest.raises(ConfigurationError):
            PoissonArrivals(
                sim, RandomStreams(0), print, rate_fn=lambda t: 1.0
            )
        with pytest.raises(ConfigurationError):
            PoissonArrivals(sim, RandomStreams(0), print, rate_per_s=-1)

    def test_pregenerate_requires_stop_at(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(
                Simulator(),
                RandomStreams(0),
                print,
                rate_per_s=1.0,
                pregenerate=True,
            )

    def test_pregenerate_matches_incremental_constant_rate(self):
        def arrivals(pregenerate):
            sim = Simulator()
            hits = []
            PoissonArrivals(
                sim,
                RandomStreams(7),
                lambda t: hits.append(t),
                rate_per_s=2.0,
                stop_at=500.0,
                pregenerate=pregenerate,
            )
            sim.run()
            return hits

        batched = arrivals(True)
        assert batched == arrivals(False)
        assert len(batched) > 800

    def test_pregenerate_matches_incremental_thinned(self):
        profile = DiurnalProfile(base=0.5, amplitude=0.5)

        def arrivals(pregenerate):
            sim = Simulator()
            hits = []
            PoissonArrivals(
                sim,
                RandomStreams(8),
                lambda t: hits.append(t),
                rate_fn=profile.rate,
                max_rate=profile.peak(),
                stop_at=2000.0,
                pregenerate=pregenerate,
            )
            sim.run()
            return hits

        assert arrivals(True) == arrivals(False)


class TestInteractiveDemand:
    def test_hourly_series_length(self):
        demand = InteractiveDemand(("DC-A", "DC-B"))
        assert len(demand.hourly_series(48)) == 48

    def test_static_beats_tracking_in_capacity_hours(self):
        demand = InteractiveDemand(("DC-A", "DC-B"), base_gbps=5, amplitude=0.6)
        static = demand.capacity_hours_static(24)
        tracking = demand.capacity_hours_tracking(24)
        assert tracking < static

    def test_tracking_covers_demand(self):
        demand = InteractiveDemand(("DC-A", "DC-B"), base_gbps=5, amplitude=0.6)
        assert demand.capacity_hours_tracking(24) >= sum(
            demand.hourly_series(24)
        ) - 1e-6

    def test_validation(self):
        demand = InteractiveDemand(("DC-A", "DC-B"))
        with pytest.raises(ConfigurationError):
            demand.hourly_series(0)
        with pytest.raises(ConfigurationError):
            demand.capacity_hours_tracking(granularity_bps=0)


class TestBulkTransferWorkload:
    def make(self, rate_policy="adaptive"):
        net = build_griphon_testbed(seed=3, latency_cv=0.0)
        svc = net.service_for("csp", max_connections=64,
                              max_total_rate_gbps=10000)
        workload = BulkTransferWorkload(
            net.sim,
            net.streams,
            svc,
            premises=["PREMISES-A", "PREMISES-B", "PREMISES-C"],
            mean_volume_bits=2 * TERABYTE,
            rate_policy=rate_policy,
        )
        return net, workload

    def test_job_lifecycle(self):
        net, workload = self.make()
        record = workload.submit_job()
        net.run()
        assert record.completed_at is not None
        assert record.started_at >= record.requested_at
        assert record.completion_time > 0

    def test_connection_torn_down_after_transfer(self):
        net, workload = self.make()
        workload.submit_job()
        net.run()
        live = [
            c
            for c in net.controller.connections.values()
            if c.state is ConnectionState.UP
        ]
        assert live == []

    def test_rate_policy_adaptive(self):
        net, workload = self.make()
        for _ in range(20):
            workload.submit_job()
        rates = {r.rate_bps for r in workload.records}
        assert len(rates) >= 2  # volumes differ enough to pick rates

    def test_heavy_tail_volumes(self):
        net, workload = self.make()
        for _ in range(50):
            workload.submit_job()
        volumes = sorted(r.volume_bits for r in workload.records)
        assert volumes[-1] > 5 * volumes[0]

    def test_blocking_ratio(self):
        net, workload = self.make()
        assert workload.blocking_ratio() == 0.0
        workload.submit_job()
        assert workload.blocking_ratio() in (0.0, 1.0)

    def test_validation(self):
        net, _ = self.make()
        svc = net.service_for("csp2")
        with pytest.raises(ConfigurationError):
            BulkTransferWorkload(net.sim, net.streams, svc, premises=["X"])
        with pytest.raises(ConfigurationError):
            BulkTransferWorkload(
                net.sim, net.streams, svc, premises=["X", "Y"],
                rate_policy="psychic",
            )
