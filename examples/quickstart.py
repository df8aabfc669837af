#!/usr/bin/env python
"""Quickstart: order bandwidth on demand between two data centers.

Builds the paper's Fig. 4 testbed, orders a 10 Gbps wavelength
connection between two customer premises, watches it come up in about a
minute (versus weeks for a manually provisioned private line), then
tears it down in about ten seconds.

Run:
    python examples/quickstart.py
"""

from repro.facade import build_griphon_testbed
from repro.core.gui import render_connections
from repro.units import format_duration


def main() -> None:
    # A deterministic network: same seed, same timings.
    net = build_griphon_testbed(seed=42)

    # Each cloud service provider gets its own isolated service handle.
    service = net.service_for("acme-cloud")

    # Order 10 Gbps between two data-center premises.  The request
    # returns immediately; provisioning runs in simulated time.
    conn = service.request_connection("PREMISES-A", "PREMISES-C", rate_gbps=10)
    print(f"requested: {conn}")

    # Advance the simulation until the EMS workflows finish.
    net.run()
    print(f"up after:  {format_duration(conn.setup_duration)}")
    print()
    print(render_connections(service))
    usage = service.usage()
    print(
        f"quota: {usage.connections} of {usage.limits.max_connections} "
        f"connections, {usage.committed_gbps:g} of "
        f"{usage.limits.max_total_rate_gbps:g} Gbps committed"
    )
    print()

    # Tear the connection down when the transfer is done.
    service.teardown_connection(conn.connection_id)
    before = net.sim.now
    net.run()
    print(f"torn down in {format_duration(net.sim.now - before)}")
    print(f"final state: {conn.state.value}")


if __name__ == "__main__":
    main()
