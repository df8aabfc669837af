"""Property tests: re-optimization under random churn and failures.

Hypothesis drives random interleavings of orders, teardowns, fiber
cuts, repairs, and global re-optimization cycles against a generated
backbone, and checks the migration guarantees after every step with
the chaos oracle (the invariant auditor) plus two explicit invariants:

* **never strand a lightpath** — every UP connection's lightpath is
  registered, UP, and every slot on its route is lit for it;
* **never double-assign** — no (link, channel) slot is claimed by two
  live lightpath segments;
* **typed outcomes throughout** — every connection record sits in a
  legal :class:`ConnectionState`, and survivors the optimizer touched
  are ACTIVE (UP) once the plan drains.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.connection import ConnectionState
from repro.faults.audit import audit_network
from repro.optimize.runtime import Reoptimizer
from repro.optimize.bench import build_optimize_network

SEED = 5
NODE_COUNT = 16

OPTIMIZE_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

operations = st.lists(
    st.tuples(
        st.sampled_from(["order", "teardown", "cut", "repair", "optimize"]),
        st.integers(min_value=0, max_value=999),
    ),
    min_size=4,
    max_size=12,
)


def check_invariants(net, connections):
    """The oracle bundle, run after every operation."""
    controller = net.controller
    report = audit_network(controller)
    assert report.ok, str(report)
    slots = {}
    for lightpath in controller.inventory.lightpaths.values():
        for segment in lightpath.segments:
            for key in segment.links:
                slot = (key, segment.channel)
                assert slot not in slots, (
                    f"double-assigned slot {slot}: "
                    f"{slots[slot]} and {lightpath.lightpath_id}"
                )
                slots[slot] = lightpath.lightpath_id
    for connection in connections:
        assert isinstance(connection.state, ConnectionState)
        if connection.state is ConnectionState.UP:
            for lightpath_id in connection.lightpath_ids:
                lightpath = controller.inventory.lightpaths.get(lightpath_id)
                assert lightpath is not None, (
                    f"{connection.connection_id} UP with stranded "
                    f"lightpath {lightpath_id}"
                )
                for segment in lightpath.segments:
                    for key in segment.links:
                        lit = controller.inventory.plant.dwdm_link(
                            *key
                        ).occupied_channels
                        assert segment.channel in lit, (
                            f"{lightpath_id} slot {key}@{segment.channel} "
                            f"is dark under an UP connection"
                        )


@OPTIMIZE_SETTINGS
@given(ops=operations)
def test_random_churn_with_reoptimization_never_strands(ops):
    net = build_optimize_network(SEED, node_count=NODE_COUNT)
    service = net.service_for(
        "prop-test", max_connections=4096, max_total_rate_gbps=1000000
    )
    optimizer = Reoptimizer(net.controller)
    pops = [
        node.name
        for node in net.inventory.graph.nodes
        if node.kind != "premises"
    ]
    links = sorted(link.key for link in net.inventory.graph.links)
    connections = []
    cut = []
    order_index = 0
    for op, pick in ops:
        if op == "order":
            a = f"DC-{pops[order_index % len(pops)]}"
            b = f"DC-{pops[(order_index * 7 + 3) % len(pops)]}"
            if a == b:
                b = f"DC-{pops[(order_index * 7 + 4) % len(pops)]}"
            connections.append(service.request_connection(a, b, 10))
            order_index += 1
        elif op == "teardown":
            live = [
                c for c in connections if c.state is ConnectionState.UP
            ]
            if live:
                service.teardown_connection(
                    live[pick % len(live)].connection_id
                )
        elif op == "cut":
            if len(cut) < 2:
                key = links[pick % len(links)]
                if key not in cut:
                    net.controller.cut_link(*key)
                    cut.append(key)
        elif op == "repair":
            if cut:
                net.controller.repair_link(*cut.pop(pick % len(cut)))
        elif op == "optimize":
            outcome = {}

            def finished(plan, report, outcome=outcome):
                outcome["plan"], outcome["report"] = plan, report

            optimizer.run_cycle(on_done=finished)
            net.run()
            report = outcome["report"]
            # Migration never drops traffic, even under concurrent
            # failures: aborted rolls keep the old path, so no touched
            # connection may leave UP.
            assert report.dropped_connections == []
            assert report.audit_failures == []
        net.run()
        check_invariants(net, connections)
    # Drain any trailing restoration work and re-check once more.
    net.run()
    check_invariants(net, connections)
