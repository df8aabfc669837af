#!/usr/bin/env python
"""Video-on-demand content replication across three data centers.

The testbed's motivating application (paper §3): VoD servers at each
customer premises replicate content to the other sites.  This example
replicates a 40 TB library from PREMISES-A to both other premises over
on-demand 10G wavelengths, then augments one leg to 12 Gbps using the
paper's composite trick — one 10G wavelength plus two 1G OTN circuits —
when a priority catalog refresh needs more headroom.

Run:
    python examples/vod_replication.py
"""

from repro.facade import build_griphon_testbed
from repro.core.gui import render_connections, render_interfaces
from repro.units import HOUR, format_duration, terabytes, transfer_time


def main() -> None:
    net = build_griphon_testbed(seed=7)
    service = net.service_for("vod-provider")
    library = terabytes(40)

    # Fan the library out from PREMISES-A over two 10G connections.
    legs = {}
    for destination in ("PREMISES-B", "PREMISES-C"):
        legs[destination] = service.request_connection(
            "PREMISES-A", destination, rate_gbps=10
        )
    net.run()
    for destination, conn in legs.items():
        print(
            f"{destination}: {conn.state.value} in "
            f"{format_duration(conn.setup_duration)}"
        )

    # Schedule each leg's teardown when its copy completes.
    for conn in legs.values():
        duration = transfer_time(library, conn.rate_bps)
        net.sim.schedule(
            duration,
            service.teardown_connection,
            conn.connection_id,
        )
        print(
            f"{conn.premises_b}: 40 TB at 10G takes "
            f"{format_duration(duration)}"
        )
    net.run()
    print(f"replication finished at t={format_duration(net.sim.now)}")
    print()

    # A priority refresh to PREMISES-B needs 12 Gbps: the controller
    # realizes it as one 10G wavelength + two 1G OTN circuits instead
    # of burning a second 10G wavelength (paper §2.2).
    refresh = service.request_connection("PREMISES-A", "PREMISES-B", 12)
    net.run()
    print(f"priority refresh: {refresh}")
    print(
        f"  realized as {len(refresh.lightpath_ids)} wavelength(s) + "
        f"{len(refresh.circuit_ids)} x 1G OTN circuit(s)"
    )
    print()
    print(render_connections(service))
    print()
    print(render_interfaces(service))

    # Hold the refresh for two hours, then release everything.
    net.sim.schedule(
        2 * HOUR, service.teardown_connection, refresh.connection_id
    )
    net.run()
    print()
    print(f"all capacity returned: {len(net.inventory.lightpaths)} lightpaths")


if __name__ == "__main__":
    main()
