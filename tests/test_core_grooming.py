"""Tests for the OTN grooming engine."""

import pytest

from repro.core.grooming import GroomingEngine
from repro.core.inventory import InventoryDatabase
from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    NoPathError,
    ResourceError,
)
from repro.optical import WavelengthGrid
from repro.otn import SharedMeshProtection
from repro.otn.circuit import OduCircuitState
from repro.topo.testbed import build_testbed_graph
from repro.units import ODU_LEVELS


def make_inventory(switch_nodes=("ROADM-I", "ROADM-II", "ROADM-III", "ROADM-IV")):
    inventory = InventoryDatabase(build_testbed_graph(), WavelengthGrid(8))
    for node in switch_nodes:
        inventory.install_otn_switch(node)
    return inventory


def line_factory_for(inventory, protection=None, budget=None):
    """A stub factory creating lines freely (or up to a budget)."""
    remaining = {"n": budget if budget is not None else 10**9}

    def factory(a, b):
        if remaining["n"] <= 0:
            raise ResourceError("line budget exhausted")
        remaining["n"] -= 1
        line = inventory.create_otn_line(a, b, level=ODU_LEVELS["ODU2"])
        if protection is not None:
            protection.add_line(line)
        return line

    return factory


class TestRouting:
    def test_switch_path_follows_topology(self):
        inventory = make_inventory()
        engine = GroomingEngine(inventory)
        path = engine.switch_path("ROADM-I", "ROADM-IV")
        assert path == ["ROADM-I", "ROADM-IV"]

    def test_switch_path_avoids_switchless_nodes(self):
        inventory = make_inventory(switch_nodes=("ROADM-I", "ROADM-II", "ROADM-III"))
        engine = GroomingEngine(inventory)
        # ROADM-IV has no switch, so I -> III must go direct or via II.
        path = engine.switch_path("ROADM-I", "ROADM-III")
        assert "ROADM-IV" not in path

    def test_no_switch_mesh_path(self):
        inventory = make_inventory(switch_nodes=("ROADM-I", "ROADM-IV"))
        engine = GroomingEngine(inventory)
        # Direct link exists, so this works...
        engine.switch_path("ROADM-I", "ROADM-IV")
        # ...but with the direct link excluded there is no all-switch path.
        with pytest.raises(NoPathError):
            engine.switch_path(
                "ROADM-I",
                "ROADM-IV",
                excluded_links=(("ROADM-I", "ROADM-IV"),),
            )


class TestEnsureLine:
    def test_creates_line_when_none_exists(self):
        inventory = make_inventory()
        engine = GroomingEngine(
            inventory, line_factory=line_factory_for(inventory)
        )
        line = engine.ensure_line("ROADM-I", "ROADM-IV", 1)
        assert line.key == ("ROADM-I", "ROADM-IV")

    def test_reuses_existing_line(self):
        inventory = make_inventory()
        engine = GroomingEngine(
            inventory, line_factory=line_factory_for(inventory)
        )
        first = engine.ensure_line("ROADM-I", "ROADM-IV", 1)
        second = engine.ensure_line("ROADM-I", "ROADM-IV", 1)
        assert first is second

    def test_no_factory_and_no_line(self):
        inventory = make_inventory()
        engine = GroomingEngine(inventory)
        with pytest.raises(CapacityExceededError):
            engine.ensure_line("ROADM-I", "ROADM-IV", 1)

    def test_factory_failure_translated(self):
        inventory = make_inventory()
        engine = GroomingEngine(
            inventory, line_factory=line_factory_for(inventory, budget=0)
        )
        with pytest.raises(CapacityExceededError):
            engine.ensure_line("ROADM-I", "ROADM-IV", 1)


class TestCircuits:
    def test_claim_allocates_slots(self):
        inventory = make_inventory()
        engine = GroomingEngine(
            inventory, line_factory=line_factory_for(inventory)
        )
        circuit = engine.claim_circuit("ROADM-I", "ROADM-IV", ODU_LEVELS["ODU0"])
        assert circuit.circuit_id in inventory.circuits
        line = inventory.otn_lines[circuit.line_ids[0]]
        assert circuit.circuit_id in line.owners()

    def test_packing_consolidates_onto_one_wavelength(self):
        """Eight ODU0 circuits fit one ODU2 line: one wavelength, not eight."""
        inventory = make_inventory()
        engine = GroomingEngine(
            inventory, line_factory=line_factory_for(inventory)
        )
        for _ in range(8):
            engine.claim_circuit("ROADM-I", "ROADM-IV", ODU_LEVELS["ODU0"])
        assert engine.wavelengths_consumed() == 1
        assert engine.mean_line_fill() == pytest.approx(1.0)

    def test_ninth_circuit_spills_to_second_line(self):
        inventory = make_inventory()
        engine = GroomingEngine(
            inventory, line_factory=line_factory_for(inventory)
        )
        for _ in range(9):
            engine.claim_circuit("ROADM-I", "ROADM-IV", ODU_LEVELS["ODU0"])
        assert engine.wavelengths_consumed() == 2

    def test_rollback_on_partial_failure(self):
        inventory = make_inventory()
        # ROADM-II -> ROADM-IV is two hops; with a budget of one new line
        # the second hop fails and the first hop's slots must roll back.
        engine = GroomingEngine(
            inventory, line_factory=line_factory_for(inventory, budget=1)
        )
        with pytest.raises(CapacityExceededError):
            engine.claim_circuit("ROADM-II", "ROADM-IV", ODU_LEVELS["ODU0"])
        assert inventory.circuits == {}
        for line in inventory.otn_lines.values():
            assert line.free_slot_count() == line.slot_count

    def test_release_circuit_frees_slots(self):
        inventory = make_inventory()
        engine = GroomingEngine(
            inventory, line_factory=line_factory_for(inventory)
        )
        circuit = engine.claim_circuit("ROADM-I", "ROADM-IV", ODU_LEVELS["ODU0"])
        line = inventory.otn_lines[circuit.line_ids[0]]
        engine.release_circuit(circuit)
        assert circuit.circuit_id not in inventory.circuits
        assert line.free_slot_count() == line.slot_count


class TestProtection:
    def test_protected_circuit_registers_backup(self):
        inventory = make_inventory()
        protection = SharedMeshProtection()
        engine = GroomingEngine(
            inventory,
            protection,
            line_factory=line_factory_for(inventory, protection),
        )
        circuit = engine.claim_circuit(
            "ROADM-I", "ROADM-IV", ODU_LEVELS["ODU0"], protect=True
        )
        assert circuit.backup_path is not None
        assert circuit.backup_path != circuit.path
        # The backup is registered: restoring works.
        circuit.transition(OduCircuitState.SETTING_UP)
        circuit.transition(OduCircuitState.UP)
        duration = protection.restore(circuit.circuit_id)
        assert duration < 1.0

    def test_protect_without_manager(self):
        inventory = make_inventory()
        engine = GroomingEngine(
            inventory, line_factory=line_factory_for(inventory)
        )
        with pytest.raises(CapacityExceededError):
            engine.claim_circuit(
                "ROADM-I", "ROADM-IV", ODU_LEVELS["ODU0"], protect=True
            )

    def test_release_unregisters_protection(self):
        inventory = make_inventory()
        protection = SharedMeshProtection()
        engine = GroomingEngine(
            inventory,
            protection,
            line_factory=line_factory_for(inventory, protection),
        )
        circuit = engine.claim_circuit(
            "ROADM-I", "ROADM-IV", ODU_LEVELS["ODU0"], protect=True
        )
        backup_line = circuit.backup_path
        engine.release_circuit(circuit)
        # Reservations must be gone on all lines.
        for line_id in inventory.otn_lines:
            assert protection.reserved_slots(line_id) == 0


class TestSwitchlessEndpoint:
    """A circuit to or from a node without an OTN switch fails as a
    routing error before it takes a circuit id or a slot."""

    @pytest.mark.parametrize(
        "source, destination, protect",
        [
            ("ROADM-IV", "ROADM-I", False),
            ("ROADM-II", "ROADM-IV", True),
        ],
    )
    def test_fails_cleanly(self, source, destination, protect):
        inventory = make_inventory(switch_nodes=("ROADM-I", "ROADM-II", "ROADM-III"))
        protection = SharedMeshProtection()
        engine = GroomingEngine(
            inventory,
            protection,
            line_factory=line_factory_for(inventory, protection),
        )
        # One standing line on the hop the old search would have taken.
        engine.ensure_line("ROADM-I", "ROADM-II", 1)
        with pytest.raises(NoPathError, match="no OTN switch at 'ROADM-IV'"):
            engine.claim_circuit(
                source, destination, ODU_LEVELS["ODU0"], protect=protect
            )
        assert inventory.circuits == {}
        for line in inventory.otn_lines.values():
            assert line.owners() == set()
        assert inventory.next_circuit_id() == "ckt-0"

    def test_rollback_covers_every_griphon_error(self):
        """A configuration error from the backup registration still
        gives the working slots back."""
        inventory = make_inventory()
        protection = SharedMeshProtection()
        # Lines the factory makes are never handed to the protection
        # manager, so registering the backup fails with ConfigurationError.
        engine = GroomingEngine(
            inventory, protection, line_factory=line_factory_for(inventory)
        )
        with pytest.raises(ConfigurationError):
            engine.claim_circuit(
                "ROADM-I", "ROADM-IV", ODU_LEVELS["ODU0"], protect=True
            )
        assert inventory.circuits == {}
        for line in inventory.otn_lines.values():
            assert line.owners() == set()
