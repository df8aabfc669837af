"""Differential tests: the pipeline against the serial controller path.

Two layers of evidence that the concurrent pipeline cannot silently
change results:

* **Byte identity at round size 1.**  A pipeline that processes one
  order per round is the serial path with extra steps — same
  connection records, same RWA choices, same blocked reasons, same
  setup timings, byte for byte in a canonical JSON fingerprint.  This
  holds because claims draw no randomness (first-fit assignment), the
  EMS latency draws come from per-lightpath named substreams whose
  relative order is preserved, and planning never mutates inventory.

* **Invariants at any round size.**  Hypothesis drives random order
  traces through round sizes > 1, where batching genuinely reorders
  work; outcomes may then differ from serial (contention is resolved
  per round), but every ticket must settle, accepted connections must
  come up, defers must respect the retry budget, quota must balance,
  and the fault auditor must find no leaked or double-booked resources.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.connection import ConnectionState
from repro.facade import build_griphon_testbed
from repro.faults.audit import audit_network
from repro.pipeline.engine import TicketState

#: (submit time, premises pair, rate Gbps): mixed wavelength, composite,
#: sub-wavelength, and packet-EVC orders, including same-instant pairs
#: and a late order against a partially loaded network.
TRACE = [
    (0.0, "PREMISES-A", "PREMISES-B", 10),
    (0.0, "PREMISES-A", "PREMISES-C", 12),
    (0.5, "PREMISES-B", "PREMISES-C", 40),
    (0.5, "PREMISES-A", "PREMISES-B", 1),
    (2.0, "PREMISES-A", "PREMISES-C", 0.5),
    (2.0, "PREMISES-B", "PREMISES-C", 12),
    (75.0, "PREMISES-A", "PREMISES-B", 10),
]

PAIRS = [
    ("PREMISES-A", "PREMISES-B"),
    ("PREMISES-A", "PREMISES-C"),
    ("PREMISES-B", "PREMISES-C"),
]


def fingerprint(net, connections):
    """Canonical JSON of everything an order trace produced."""
    data = {}
    for conn in connections:
        lightpaths = [net.inventory.lightpaths[i] for i in conn.lightpath_ids]
        data[conn.connection_id] = {
            "state": conn.state.value,
            "kind": conn.kind.value,
            "blocked": conn.blocked_reason,
            "rate": conn.rate_bps,
            "lightpaths": [
                {
                    "path": list(lp.path),
                    "channels": [s.channel for s in lp.segments],
                    "segments": [list(s.nodes) for s in lp.segments],
                }
                for lp in lightpaths
            ],
            "circuits": list(conn.circuit_ids),
            "evcs": list(conn.evc_ids),
            "setup_s": (
                None
                if conn.setup_duration is None
                else round(conn.setup_duration, 9)
            ),
        }
    data["audit_ok"] = audit_network(net.controller).ok
    data["usage"] = dict(net.controller.admission.usage("csp"))
    return json.dumps(data, sort_keys=True)


def run_serial(seed, trace=TRACE, latency_cv=None):
    net = build_griphon_testbed(seed=seed, latency_cv=latency_cv)
    service = net.service_for("csp", max_connections=64,
                              max_total_rate_gbps=10000)
    out = []
    for t, a, b, rate in trace:
        net.sim.schedule(
            t, lambda a=a, b=b, rate=rate: out.append(
                service.request_connection(a, b, rate)
            )
        )
    net.run()
    return fingerprint(net, out)


def run_pipelined(seed, round_size, trace=TRACE, latency_cv=None, **kwargs):
    net = build_griphon_testbed(seed=seed, latency_cv=latency_cv)
    net.enable_pipeline(round_size=round_size, **kwargs)
    service = net.service_for("csp", max_connections=64,
                              max_total_rate_gbps=10000)
    tickets = []
    for t, a, b, rate in trace:
        net.sim.schedule(
            t, lambda a=a, b=b, rate=rate: tickets.append(
                service.submit_connection(a, b, rate)
            )
        )
    net.run()
    connections = [
        net.controller.connection(ticket.connection_id) for ticket in tickets
    ]
    return net, tickets, connections


# -- round size 1: byte identity with the serial path ------------------------


def test_round_size_1_is_byte_identical_to_serial():
    for seed in (0, 7, 42):
        serial = run_serial(seed)
        net, tickets, connections = run_pipelined(seed, round_size=1)
        assert all(t.state is not TicketState.QUEUED for t in tickets)
        assert fingerprint(net, connections) == serial, f"seed {seed}"


def test_round_size_1_identity_with_latency_noise():
    # Non-zero latency CV exercises the per-substream draw ordering.
    serial = run_serial(11, latency_cv=0.3)
    net, _, connections = run_pipelined(11, round_size=1, latency_cv=0.3)
    assert fingerprint(net, connections) == serial


def test_round_size_1_never_defers():
    # A one-order round has an empty claim overlay, so contention defers
    # are impossible — a precondition of the identity above.
    _, tickets, _ = run_pipelined(0, round_size=1)
    assert all(t.rounds_deferred == 0 for t in tickets)


# -- any round size: invariants under reordering -----------------------------

order_traces = st.lists(
    st.tuples(
        st.sampled_from(PAIRS),
        st.sampled_from([0.5, 1, 10, 12, 40]),
        st.sampled_from([0.0, 0.0, 1.0, 30.0]),
    ),
    min_size=1,
    max_size=10,
)

PIPELINE_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@PIPELINE_SETTINGS
@given(
    trace=order_traces,
    round_size=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=5),
)
def test_pipeline_invariants_any_round_size(trace, round_size, seed):
    net = build_griphon_testbed(seed=seed)
    net.enable_pipeline(round_size=round_size, max_defers=2)
    service = net.service_for("csp", max_connections=64,
                              max_total_rate_gbps=10000)
    tickets = []
    for (a, b), rate, at in trace:
        net.sim.schedule(
            at, lambda a=a, b=b, rate=rate: tickets.append(
                service.submit_connection(a, b, rate)
            )
        )
    net.run()

    assert len(tickets) == len(trace)
    assert all(t.settled for t in tickets)
    assert net.pipeline.queue_depth() == 0
    accepted = [t for t in tickets if t.state is TicketState.ACCEPTED]
    for ticket in accepted:
        conn = net.controller.connection(ticket.connection_id)
        assert conn.state is ConnectionState.UP
    for ticket in tickets:
        assert ticket.rounds_deferred <= 2
        if ticket.state is TicketState.BLOCKED:
            assert ticket.reason
    # Quota balances: exactly the accepted orders hold admission.
    usage = net.controller.admission.usage("csp")
    assert usage["connections"] == len(accepted)
    assert usage["rate_bps"] == sum(t.rate_bps for t in accepted)
    # The fault auditor is the oracle for leaks/double-booking.
    report = audit_network(net.controller)
    assert report.ok, report.violations
