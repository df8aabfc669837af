"""The service frontend under EMS chaos, judged by the invariant auditor.

Two simulated hours of an open-loop tenant fleet submitting through the
async frontend while transient and timeout faults hit 20% of the EMS
commands underneath.  Connections are torn down as soon as they come
up, so the run keeps cycling submit → edge gates → pump → setup →
teardown, saga rollbacks included.  Whatever the faults did:

* every submission is admitted, shed or throttled, and every ticket
  resolves to one of :data:`repro.api.TERMINAL_OUTCOMES`;
* the frontend queue never holds more than its capacity;
* after the survivors are torn down, :func:`repro.faults.audit_network`
  finds nothing leaked and nothing double-allocated.
"""

from repro import api
from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed
from repro.faults import FaultPlan, FaultSpec, audit_network
from repro.frontend.clients import ClientFleet
from repro.units import HOUR
from repro.workload.tenants import TenantPopulation

#: Connection states that still hold resources when the arrivals stop.
TEARDOWN_STATES = (
    ConnectionState.UP,
    ConnectionState.DEGRADED,
    ConnectionState.FAILED,
    ConnectionState.RESTORING,
)


def test_two_sim_hours_under_ems_faults_leave_no_residue():
    plan = FaultPlan(
        [FaultSpec(mode=mode, probability=0.2) for mode in ("transient", "timeout")]
    )
    net = build_griphon_testbed(seed=77, latency_cv=0.0, fault_plan=plan)
    frontend = net.enable_frontend(
        queue_capacity=64, round_interval=0.01, bucket_rate=1.0, bucket_burst=8.0
    )
    depths = []

    def cycle(ticket, event):
        if event == "admitted":
            depths.append(frontend.queue_depth())
        elif event == "active" and ticket.order_ticket is not None:
            # Scheduled, so the Active outcome resolves before the release.
            net.sim.schedule(0.0, frontend._intake.teardown, ticket.order_ticket)

    frontend.add_listener(cycle)
    fleet = ClientFleet(
        frontend,
        TenantPopulation(5_000),
        net.controller.admission,
        premises=["PREMISES-A", "PREMISES-B", "PREMISES-C"],
        streams=net.streams.spawn("fleet"),
        arrival_rate=0.5,
        duration=2 * HOUR,
    )
    fleet.start()
    net.run()

    for ticket in fleet.tickets:
        order = ticket.order_ticket
        if order is None or order.connection_id is None:
            continue
        if net.controller.connection(order.connection_id).state in TEARDOWN_STATES:
            net.controller.teardown_connection(order.connection_id)
    net.run()

    # The run did the work it is meant to judge.
    assert fleet.stats.submitted > 3_000
    assert sum(plan.injected_counts) > 1_000
    assert fleet.stats.outcomes.get("Active", 0) > 100
    assert fleet.stats.outcomes.get("SetupFailed", 0) > 0

    counters = net.metrics.counters()
    assert counters["frontend.submitted"] == (
        counters.get("frontend.admitted", 0.0)
        + counters.get("frontend.shed", 0.0)
        + counters.get("frontend.throttled", 0.0)
    )
    assert fleet.stats.resolved() == fleet.stats.submitted
    assert all(isinstance(t.outcome, api.TERMINAL_OUTCOMES) for t in fleet.tickets)
    assert max(depths) <= frontend.capacity
    audit = audit_network(net.controller)
    assert audit.ok, audit.violations
