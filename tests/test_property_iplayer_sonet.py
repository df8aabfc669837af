"""Property-based conservation tests for the IP layer and SONET rings."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GriphonError
from repro.iplayer import IpLayer
from repro.legacy import SonetRing
from repro.units import gbps


def build_ip_triangle():
    layer = IpLayer()
    for node in "ABC":
        layer.add_router(node)
    layer.add_adjacency("A", "B", capacity_bps=gbps(10))
    layer.add_adjacency("B", "C", capacity_bps=gbps(10))
    layer.add_adjacency("A", "C", capacity_bps=gbps(10))
    return layer


ip_operation = st.one_of(
    st.tuples(
        st.just("provision"),
        st.sampled_from([("A", "B"), ("B", "C"), ("A", "C")]),
        st.floats(min_value=50e6, max_value=5e9),
    ),
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=20)),
    st.tuples(
        st.just("fail"),
        st.sampled_from([("A", "B"), ("B", "C"), ("A", "C")]),
    ),
    st.tuples(
        st.just("repair"),
        st.sampled_from([("A", "B"), ("B", "C"), ("A", "C")]),
    ),
    st.tuples(st.just("reroute"), st.integers(min_value=0, max_value=20)),
)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(ip_operation, max_size=30))
def test_ip_layer_reservations_always_balance(ops):
    """Invariant: every adjacency's reserved_bps equals the sum of its
    per-EVC reservations, and never exceeds the sellable rate."""
    layer = build_ip_triangle()
    for op in ops:
        try:
            if op[0] == "provision":
                _, (a, b), rate = op
                layer.provision_evc(a, b, rate)
            elif op[0] == "release":
                _, index = op
                evcs = layer.evcs
                if evcs:
                    layer.release_evc(evcs[index % len(evcs)].evc_id)
            elif op[0] == "fail":
                _, (a, b) = op
                layer.fail_adjacency(a, b)
            elif op[0] == "repair":
                _, (a, b) = op
                layer.repair_adjacency(a, b)
            elif op[0] == "reroute":
                _, index = op
                evcs = layer.evcs
                if evcs:
                    layer.reroute_evc(evcs[index % len(evcs)].evc_id)
        except GriphonError:
            pass  # legitimate rejections do not break invariants
        for pair in (("A", "B"), ("B", "C"), ("A", "C")):
            adjacency = layer.adjacency(*pair)
            assert adjacency.reserved_bps == sum(
                adjacency.owners.values()
            ), "reservation ledger out of sync"
            assert adjacency.reserved_bps <= adjacency.sellable_bps + 1e-6


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("provision"),
                st.sampled_from(
                    [("N", "D"), ("D", "A"), ("A", "C"), ("N", "A"), ("C", "N")]
                ),
                st.integers(min_value=1, max_value=12),
            ),
            st.tuples(st.just("release"), st.integers(min_value=0, max_value=20)),
            st.tuples(st.just("fail"), st.integers(min_value=0, max_value=3)),
            st.tuples(st.just("repair"), st.integers(min_value=0, max_value=3)),
        ),
        max_size=25,
    )
)
# A circuit provisioned during a failure takes the working timeslots a
# protection-switched circuit would revert onto (span 2 reached 25 of 24).
@example(
    ops=[
        ("provision", ("D", "A"), 1),
        ("provision", ("D", "A"), 1),
        ("provision", ("A", "C"), 11),
        ("fail", 0),
        ("provision", ("N", "D"), 1),
        ("provision", ("N", "D"), 12),
        ("repair", 0),
    ]
)
def test_sonet_ring_timeslots_always_balance(ops):
    """Invariant: used working+protection timeslots on each span equal
    the sum over circuits of their footprints, and never go negative or
    exceed capacity."""
    ring = SonetRing("R", ["N", "D", "A", "C"], line_sts=48)
    for op in ops:
        try:
            if op[0] == "provision":
                _, (a, b), sts = op
                ring.provision(a, b, sts=sts)
            elif op[0] == "release":
                _, index = op
                circuits = ring.circuits()
                if circuits:
                    ring.release(circuits[index % len(circuits)].circuit_id)
            elif op[0] == "fail":
                ring.fail_span(op[1])
            elif op[0] == "repair":
                ring.repair_span(op[1])
        except GriphonError:
            pass
        # Reconstruct expected usage from the circuit list.
        expected_working = [0] * ring.span_count
        expected_protection = [0] * ring.span_count
        for circuit in ring.circuits():
            if circuit.on_protection:
                spans = [
                    s
                    for s in range(ring.span_count)
                    if s not in circuit.spans
                ]
                for s in spans:
                    expected_protection[s] += circuit.sts
            else:
                for s in circuit.spans:
                    expected_working[s] += circuit.sts
        for span in range(ring.span_count):
            assert ring._working_used[span] == expected_working[span]
            assert ring._protection_used[span] == expected_protection[span]
            assert 0 <= ring._working_used[span] <= ring.working_capacity
            assert 0 <= ring._protection_used[span] <= ring.working_capacity
