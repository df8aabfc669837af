#!/usr/bin/env python
"""Planned maintenance with automated bridge-and-roll.

A carrier needs a four-hour maintenance window on a fiber span that
carries a customer's wavelength connection.  With GRIPhoN the scheduler
migrates the connection to a disjoint path beforehand (a ~50 ms roll
hit); without coordination the customer would eat a restoration outage
— or, in the manual world, the whole window (paper §1, Table 1).

Run:
    python examples/maintenance_bridge_roll.py
"""

from repro.facade import build_griphon_testbed
from repro.units import HOUR, format_duration


def run_window(use_bridge_and_roll: bool) -> float:
    net = build_griphon_testbed(seed=13)
    service = net.service_for("acme-cloud")
    conn = service.request_connection("PREMISES-A", "PREMISES-C", 10)
    net.run()
    path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
    record = net.maintenance.schedule(
        path[0],
        path[1],
        start_in=900.0,  # window opens in 15 minutes
        duration=4 * HOUR,
        use_bridge_and_roll=use_bridge_and_roll,
    )
    net.run()
    assert record.completed
    if use_bridge_and_roll:
        assert record.migrated == [conn.connection_id]
    return conn.total_outage_s


def main() -> None:
    print("maintenance window: 4 hours on a span carrying one 10G customer")
    print()
    with_bridge = run_window(use_bridge_and_roll=True)
    without = run_window(use_bridge_and_roll=False)
    print(f"customer outage WITH bridge-and-roll:    {format_duration(with_bridge)}")
    print(f"customer outage WITHOUT (auto-restore):  {format_duration(without)}")
    print(f"customer outage in the manual world:     {format_duration(4 * HOUR)}")
    print()
    ratio = without / with_bridge
    print(
        f"bridge-and-roll reduced the maintenance impact by {ratio:,.0f}x "
        "versus uncoordinated maintenance with automated restoration,"
    )
    print(
        f"and by {4 * HOUR / with_bridge:,.0f}x versus today's manual "
        "operations."
    )


if __name__ == "__main__":
    main()
