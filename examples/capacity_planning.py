#!/usr/bin/env python
"""Capacity planning: static leases vs bandwidth on demand.

The economics behind the paper's motivation (§1): inter-DC demand is a
diurnal interactive floor plus bursty bulk replication.  This example
compares, for one data-center pair on the continental backbone:

* the capacity-hours a statically peak-provisioned lease burns;
* the capacity-hours BoD burns tracking demand hourly at 1G granularity;
* bulk-transfer completion on a BoD wavelength versus a NetStitcher-
  style store-and-forward scheduler riding the static pipe's leftovers.

Run:
    python examples/capacity_planning.py
"""

from repro.facade import build_griphon_backbone
from repro.baselines.static_provisioning import StaticProvisioningPlan
from repro.baselines.store_forward import StoreForwardScheduler
from repro.units import GBPS, format_duration, gbps, terabytes, transfer_time
from repro.workload.interactive import InteractiveDemand


def main() -> None:
    # The interactive floor between the east and west coast DCs.
    demand = InteractiveDemand(
        ("DC-EAST", "DC-WEST"), base_gbps=6.0, amplitude=0.6, peak_hour=20.0
    )
    series = demand.hourly_series(24)
    static = StaticProvisioningPlan(series, granularity_bps=gbps(10))
    tracking_ch = demand.capacity_hours_tracking(24, granularity_bps=gbps(1))

    print("interactive demand, one day, DC-EAST <-> DC-WEST")
    print(f"  peak demand:            {demand.peak_bps() / GBPS:.1f} G")
    print(f"  static lease:           {static.leased_capacity_bps / GBPS:.0f} G around the clock")
    print(f"  static capacity-hours:  {static.capacity_hours() / GBPS:.0f} G-h "
          f"(utilization {static.utilization():.0%})")
    print(f"  BoD capacity-hours:     {tracking_ch / GBPS:.0f} G-h "
          f"({tracking_ch / static.capacity_hours():.0%} of static)")
    print()

    # A 20 TB nightly replication job.
    volume = terabytes(20)
    print("20 TB bulk replication job")

    # Option 1: BoD wavelength through the real controller.
    net = build_griphon_backbone(seed=3)
    service = net.service_for("acme-cloud")
    conn = service.request_connection("DC-EAST", "DC-WEST", 10)
    net.run()
    bod_total = conn.setup_duration + transfer_time(volume, conn.rate_bps)
    print(f"  BoD 10G wavelength:       {format_duration(bod_total)} "
          f"(incl. {format_duration(conn.setup_duration)} setup)")

    # Option 2: store-and-forward over the static pipe's leftovers.
    leftover = [static.leased_capacity_bps - d for d in series]
    scheduler = StoreForwardScheduler({"east-west": leftover})
    snf = scheduler.hop_completion_time("east-west", volume)
    print(f"  store-and-forward:        {format_duration(snf)} "
          "(no new capacity, leftover bandwidth only)")

    # Option 3: the ideal lower bound.
    print(f"  dedicated 10G (ideal):    "
          f"{format_duration(transfer_time(volume, gbps(10)))}")
    print()
    print(
        "BoD matches the dedicated bound to within its one-minute setup; "
        "store-and-forward"
    )
    print(
        f"needs {snf / bod_total:.1f}x longer here because the "
        "peak-provisioned pipe leaves little headroom at night's end."
    )

    service.teardown_connection(conn.connection_id)
    net.run()


if __name__ == "__main__":
    main()
