"""Chaos property tests: inject random faults, audit for residue.

Hypothesis drives random fault plans (mode mix, probability, windows)
against batches of orders on the testbed and checks the saga's global
guarantees with the invariant auditor as the oracle:

* whatever the plan injected, no resource leaks and nothing is
  double-allocated — neither mid-run nor after a full teardown;
* after tearing everything down only the carrier's standing OTN-line
  infrastructure remains allocated;
* the whole scenario is byte-deterministic per master seed.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed
from repro.faults.audit import audit_network
from repro.faults.plan import FAULT_MODES, FaultPlan, FaultSpec

PAIRS = [
    ("PREMISES-A", "PREMISES-B"),
    ("PREMISES-A", "PREMISES-C"),
    ("PREMISES-B", "PREMISES-C"),
]
RATES = (10, 12, 1)

TEARDOWN_STATES = (
    ConnectionState.UP,
    ConnectionState.DEGRADED,
    ConnectionState.FAILED,
    ConnectionState.RESTORING,
)

fault_spec = st.builds(
    FaultSpec,
    ems=st.sampled_from(["*", "roadm_ems", "otn_ems", "fxc_ctl", "controller"]),
    command=st.sampled_from(["*", "tune", "roadm", "fxc", "crossconnect"]),
    mode=st.sampled_from(FAULT_MODES),
    probability=st.sampled_from([0.1, 0.3, 0.6]),
    count=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)

CHAOS_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_scenario(seed, specs, orders):
    """Build, order, run; returns (net, service, connections)."""
    plan = FaultPlan(specs)
    net = build_griphon_testbed(seed=seed, fault_plan=plan)
    service = net.service_for("chaos")
    connections = []
    for index in range(orders):
        a, b = PAIRS[index % len(PAIRS)]
        connections.append(
            service.request_connection(a, b, RATES[index % len(RATES)])
        )
    net.run()
    return net, service, connections


def teardown_all(net, service, connections):
    for connection in connections:
        if connection.state in TEARDOWN_STATES:
            service.teardown_connection(connection.connection_id)
    net.run()


def fingerprint(net, connections):
    """A canonical JSON digest of everything the scenario determined."""
    return json.dumps(
        {
            "now": net.sim.now,
            "states": [c.state.value for c in connections],
            "counters": net.metrics.counters(),
        },
        sort_keys=True,
    )


@CHAOS_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    specs=st.lists(fault_spec, min_size=1, max_size=3),
    orders=st.integers(min_value=3, max_value=7),
)
def test_chaos_never_leaks(seed, specs, orders):
    net, service, connections = run_scenario(seed, specs, orders)
    mid = audit_network(net.controller)
    assert mid.ok, str(mid)
    teardown_all(net, service, connections)
    final = audit_network(net.controller)
    assert final.ok, str(final)
    # Zero residue: only standing OTN-line lightpaths survive, and the
    # customer's quota is fully returned.
    line_lightpaths = set(net.controller._line_lightpath.values())
    assert set(net.inventory.lightpaths) == line_lightpaths
    usage = service.usage()
    assert usage["connections"] == 0
    assert usage["committed_gbps"] == 0


@CHAOS_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    specs=st.lists(fault_spec, min_size=1, max_size=2),
)
def test_chaos_is_byte_deterministic_per_seed(seed, specs):
    runs = []
    for _ in range(2):
        net, _, connections = run_scenario(seed, list(specs), 5)
        runs.append(fingerprint(net, connections))
    assert runs[0] == runs[1]
