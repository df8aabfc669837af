#!/usr/bin/env python
"""Fiber cuts: automated detection, localization, and restoration.

Demonstrates the GRIPhoN controller's failure handling (paper §2.2):

* a conduit cut takes down a wavelength connection; the controller
  localizes it, re-plans around the failed SRLG, and re-provisions in
  about a minute — versus 4-12 hours of manual restoration today;
* a sub-wavelength (OTN) circuit on the same cut restores in under a
  second via shared-mesh protection;
* after repair, bridge-and-roll reverts the wavelength connection to
  its original path almost hitlessly.

Run:
    python examples/failure_restoration.py
"""

from repro import build_griphon_testbed
from repro.core.gui import render_fault_panel
from repro.units import format_duration


def main() -> None:
    net = build_griphon_testbed(seed=11)
    service = net.service_for("acme-cloud")

    wave = service.request_connection("PREMISES-A", "PREMISES-C", 10)
    sub = service.request_connection("PREMISES-A", "PREMISES-C", 1)
    net.run()
    wave_path = net.inventory.lightpaths[wave.lightpath_ids[0]].path
    print(f"wavelength connection up on {' - '.join(wave_path)}")
    print(f"sub-wavelength circuit up ({sub.kind.value})")
    print()

    # Cut the first span of the wavelength path (a backhoe finds the
    # conduit).  The controller reacts on its own.
    a, b = wave_path[0], wave_path[1]
    print(f"*** fiber cut on {a} = {b} ***")
    net.controller.cut_link(a, b)
    print(render_fault_panel(service))
    net.run()
    print()
    print("after automated restoration:")
    print(f"  wavelength outage: {format_duration(wave.total_outage_s)}")
    print(f"  sub-wavelength outage: {format_duration(sub.total_outage_s)}")
    new_path = net.inventory.lightpaths[wave.lightpath_ids[0]].path
    print(f"  wavelength restored on {' - '.join(new_path)}")
    print(render_fault_panel(service))
    print()

    # The cable is spliced; revert to the shorter original path using
    # bridge-and-roll (the 'reversion' use of §2.2) with a ~50 ms hit.
    net.controller.repair_link(a, b)
    outage_before = wave.total_outage_s
    summary = {}
    net.controller.bridge_and_roll(
        wave.connection_id, on_settled=summary.update
    )
    net.run()
    print(f"repair + reversion via bridge-and-roll:")
    print(f"  bridge built in {format_duration(summary['bridge_s'])} (hitless)")
    print(f"  roll hit: {format_duration(summary['hit_s'])}")
    print(f"  now on {' - '.join(summary['new_path'])}")
    print(
        "  total additional outage during reversion: "
        f"{format_duration(wave.total_outage_s - outage_before)}"
    )


if __name__ == "__main__":
    main()
