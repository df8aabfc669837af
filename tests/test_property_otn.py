"""Property-based tests for OTN shared-mesh protection invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.otn.circuit import OduCircuit, OduCircuitState
from repro.otn.line import OtnLine
from repro.otn.mesh_restoration import SharedMeshProtection
from repro.units import ODU_LEVELS


def build_square():
    """Protection manager over a square mesh A-B-C-D-A."""
    protection = SharedMeshProtection()
    lines = {}
    for line_id, a, b in (
        ("L:A=B", "A", "B"),
        ("L:B=C", "B", "C"),
        ("L:A=D", "A", "D"),
        ("L:C=D", "C", "D"),
    ):
        line = OtnLine(line_id, a, b)
        protection.add_line(line)
        lines[line_id] = line
    return protection, lines


def make_circuit(index, level_name):
    """A circuit A-B-C protected via A-D-C."""
    circuit = OduCircuit(
        f"c{index}",
        ODU_LEVELS[level_name],
        ["A", "B", "C"],
        backup_path=["A", "D", "C"],
    )
    circuit.transition(OduCircuitState.SETTING_UP)
    circuit.transition(OduCircuitState.UP)
    return circuit


@settings(max_examples=40, deadline=None)
@given(
    levels=st.lists(
        st.sampled_from(["ODU0", "ODU1", "ODU2"]), min_size=1, max_size=8
    )
)
def test_register_unregister_conserves_reservations(levels):
    protection, _ = build_square()
    registered = []
    for index, level_name in enumerate(levels):
        circuit = make_circuit(index, level_name)
        try:
            protection.register(circuit, ["L:A=D", "L:C=D"])
        except Exception:
            continue  # capacity exceeded: fine, nothing must have changed
        registered.append(circuit)
    for circuit in registered:
        protection.unregister(circuit.circuit_id)
    for line_id in ("L:A=D", "L:C=D", "L:A=B", "L:B=C"):
        assert protection.reserved_slots(line_id) == 0


@settings(max_examples=40, deadline=None)
@given(
    levels=st.lists(
        st.sampled_from(["ODU0", "ODU1"]), min_size=1, max_size=6
    )
)
def test_restore_revert_roundtrip_conserves_slots(levels):
    protection, lines = build_square()
    circuits = []
    for index, level_name in enumerate(levels):
        circuit = make_circuit(index, level_name)
        try:
            protection.register(circuit, ["L:A=D", "L:C=D"])
        except Exception:
            continue
        circuits.append(circuit)
    free_before = {
        line_id: line.free_slot_count() for line_id, line in lines.items()
    }
    restored = []
    for circuit in circuits:
        try:
            protection.restore(circuit.circuit_id)
        except Exception:
            continue
        restored.append(circuit)
    for circuit in restored:
        protection.revert(circuit.circuit_id)
        assert circuit.state is OduCircuitState.UP
    for line_id, line in lines.items():
        assert line.free_slot_count() == free_before[line_id]


@settings(max_examples=40, deadline=None)
@given(
    levels=st.lists(
        st.sampled_from(["ODU0", "ODU1", "ODU2"]), min_size=1, max_size=10
    )
)
def test_single_failure_restorability_guarantee(levels):
    """Everything the manager *accepted* must actually restore after a
    single failure of the shared working link — the whole point of the
    per-scenario reservation accounting."""
    protection, _ = build_square()
    accepted = []
    for index, level_name in enumerate(levels):
        circuit = make_circuit(index, level_name)
        try:
            protection.register(circuit, ["L:A=D", "L:C=D"])
        except Exception:
            continue
        accepted.append(circuit)
    # All accepted circuits share the working link A=B; fail it.
    hit = protection.circuits_hit_by(("A", "B"))
    assert set(c.circuit_id for c in hit) == set(
        c.circuit_id for c in accepted
    )
    for circuit in hit:
        duration = protection.restore(circuit.circuit_id)
        assert 0 < duration < 1.0
        assert circuit.state is OduCircuitState.ON_BACKUP
