#!/usr/bin/env python
"""Network re-grooming: moving connections back onto better paths.

Paper §4: connections provisioned while the best route was unavailable
end up on detours; re-grooming migrates them back with bridge-and-roll.
This example provisions during an outage, repairs the span, runs a
re-grooming pass, and shows the operator view before and after.

Run:
    python examples/regrooming_pass.py
"""

from repro.facade import build_griphon_testbed
from repro.core.gui import render_network_view
from repro.core.regrooming import RegroomingEngine


def main() -> None:
    net = build_griphon_testbed(seed=17, nte_interfaces=12)
    service = net.service_for("acme-cloud", max_connections=32)

    # The direct ROADM-I = ROADM-IV span is down when the orders arrive,
    # so everything detours through ROADM-III.
    net.controller.cut_link("ROADM-I", "ROADM-IV")
    connections = [
        service.request_connection("PREMISES-A", "PREMISES-C", 10)
        for _ in range(3)
    ]
    net.run()
    graph = net.inventory.graph
    print("provisioned during the outage:")
    for conn in connections:
        path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
        km = graph.path_length_km(path)
        print(f"  {conn.connection_id}: {' - '.join(path)} ({km:g} km)")
    print()

    # The span is repaired; the short route is available again.
    net.controller.repair_link("ROADM-I", "ROADM-IV")
    engine = RegroomingEngine(net.controller)
    candidates = engine.scan()
    print(f"re-grooming scan: {len(candidates)} candidate(s)")
    for candidate in candidates:
        print(
            f"  {candidate.connection_id}: {candidate.current_km:g} km -> "
            f"{candidate.best_km:g} km "
            f"({candidate.improvement:.0%} shorter)"
        )
    print()

    report = engine.run_pass()
    net.run()
    print(f"migrated {len(report.migrated)} connection(s) via bridge-and-roll")
    for conn in connections:
        path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
        km = graph.path_length_km(path)
        hit_ms = conn.total_outage_s * 1000
        print(
            f"  {conn.connection_id}: now {' - '.join(path)} ({km:g} km), "
            f"total hit {hit_ms:.0f} ms"
        )
    print()
    print(render_network_view(net.controller))


if __name__ == "__main__":
    main()
