#!/usr/bin/env python
"""A month of fiber cuts: what automated restoration buys.

Subjects one 10 Gbps inter-DC connection to a simulated month of random
fiber cuts (network-wide MTBF of two days, physical repairs averaging
six hours) under two regimes — GRIPhoN's automated restoration versus
today's wait-for-the-splice-crew — and reports the availability gap.

Run:
    python examples/reliability_study.py
"""

from repro.facade import build_griphon_testbed
from repro.metrics.availability import (
    downtime_minutes_per_year,
    measured_availability,
    nines,
)
from repro.units import DAY, HOUR
from repro.workload.failures import FiberCutInjector

HORIZON = 28 * DAY


def run_month(auto_restore: bool):
    net = build_griphon_testbed(seed=123, auto_restore=auto_restore)
    service = net.service_for("acme-cloud")
    conn = service.request_connection("PREMISES-A", "PREMISES-C", 10)
    net.run()
    injector = FiberCutInjector(
        net.controller,
        net.streams,
        mean_time_between_cuts_s=2 * DAY,
        mean_repair_s=6 * HOUR,
        stop_at=HORIZON,
    )
    net.run(until=HORIZON + 2 * DAY)
    net.run()
    if conn.outage_started_at is not None:
        conn.end_outage(net.sim.now)
    availability = measured_availability(conn, conn.up_at, HORIZON)
    return availability, len(injector.records)


def main() -> None:
    print("one simulated month, network MTBF 2 days, repairs ~6 h\n")
    for label, auto in (
        ("GRIPhoN automated restoration", True),
        ("manual repair only (today)", False),
    ):
        availability, cuts = run_month(auto)
        print(f"{label}:")
        print(f"  fiber cuts endured:   {cuts}")
        print(f"  availability:         {availability:.5f} "
              f"({nines(availability):.1f} nines)")
        print(f"  downtime equivalent:  "
              f"{downtime_minutes_per_year(availability):,.0f} min/year\n")
    print(
        "Same fiber, same cuts - the only difference is who re-routes "
        "the traffic, and how fast."
    )


if __name__ == "__main__":
    main()
