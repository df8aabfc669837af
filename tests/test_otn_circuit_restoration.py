"""Tests for ODU circuits and shared-mesh restoration."""

import pytest

from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    ConnectionStateError,
    ResourceError,
)
from repro.otn.circuit import OduCircuit, OduCircuitState
from repro.otn.line import OtnLine
from repro.otn.mesh_restoration import SharedMeshProtection
from repro.units import ODU_LEVELS


def make_circuit(cid, path, backup, level="ODU0"):
    return OduCircuit(
        cid, ODU_LEVELS[level], list(path), backup_path=list(backup)
    )


@pytest.fixture
def mesh():
    """A square A-B-C-D-A managed by shared-mesh protection.

    Working circuits go A-B-C; backup goes A-D-C.
    """
    protection = SharedMeshProtection()
    for line_id, a, b in (
        ("L:A=B", "A", "B"),
        ("L:B=C", "B", "C"),
        ("L:A=D", "A", "D"),
        ("L:C=D", "C", "D"),
    ):
        protection.add_line(OtnLine(line_id, a, b))
    return protection


class TestCircuitStateMachine:
    def test_lifecycle(self):
        ckt = make_circuit("c1", ["A", "B"], ["A", "D", "B"])
        ckt.transition(OduCircuitState.SETTING_UP)
        ckt.transition(OduCircuitState.UP)
        ckt.transition(OduCircuitState.ON_BACKUP)
        ckt.transition(OduCircuitState.UP)
        ckt.transition(OduCircuitState.RELEASED)

    def test_illegal_transition(self):
        ckt = make_circuit("c1", ["A", "B"], ["A", "D", "B"])
        with pytest.raises(ConnectionStateError):
            ckt.transition(OduCircuitState.ON_BACKUP)

    def test_active_path_switches_with_state(self):
        ckt = make_circuit("c1", ["A", "B", "C"], ["A", "D", "C"])
        ckt.transition(OduCircuitState.SETTING_UP)
        ckt.transition(OduCircuitState.UP)
        assert ckt.active_path == ["A", "B", "C"]
        ckt.transition(OduCircuitState.ON_BACKUP)
        assert ckt.active_path == ["A", "D", "C"]

    def test_slots_needed_tracks_level(self):
        odu1 = make_circuit("c1", ["A", "B"], ["A", "D", "B"], level="ODU1")
        assert odu1.slots_needed == 2

    def test_str_mentions_level(self):
        ckt = make_circuit("c1", ["A", "B"], ["A", "D", "B"])
        assert "ODU0" in str(ckt)


class TestRegistration:
    def test_register_reserves_capacity(self, mesh):
        ckt = make_circuit("c1", ["A", "B", "C"], ["A", "D", "C"])
        mesh.register(ckt, ["L:A=D", "L:C=D"])
        assert mesh.reserved_slots("L:A=D") == 1
        assert mesh.reserved_slots("L:B=C") == 0

    def test_register_requires_backup_path(self, mesh):
        ckt = OduCircuit("c1", ODU_LEVELS["ODU0"], ["A", "B"])
        with pytest.raises(ConfigurationError):
            mesh.register(ckt, [])

    def test_register_rejects_wrong_line_count(self, mesh):
        ckt = make_circuit("c1", ["A", "B", "C"], ["A", "D", "C"])
        with pytest.raises(ConfigurationError):
            mesh.register(ckt, ["L:A=D"])

    def test_register_rejects_shared_links(self, mesh):
        ckt = make_circuit("c1", ["A", "B", "C"], ["A", "B", "C"])
        with pytest.raises(ConfigurationError):
            mesh.register(ckt, ["L:A=B", "L:B=C"])

    def test_register_rejects_duplicates(self, mesh):
        ckt = make_circuit("c1", ["A", "B", "C"], ["A", "D", "C"])
        mesh.register(ckt, ["L:A=D", "L:C=D"])
        with pytest.raises(ConfigurationError):
            mesh.register(ckt, ["L:A=D", "L:C=D"])

    def test_disjoint_working_paths_share_backup(self):
        """Two circuits that cannot fail together share reservations."""
        protection = SharedMeshProtection()
        shared = OtnLine("L:X=Y", "X", "Y")
        protection.add_line(shared)
        a = OduCircuit(
            "a", ODU_LEVELS["ODU2"], ["X", "P", "Y"], backup_path=["X", "Y"]
        )
        b = OduCircuit(
            "b", ODU_LEVELS["ODU2"], ["X", "Q", "Y"], backup_path=["X", "Y"]
        )
        protection.register(a, ["L:X=Y"])
        protection.register(b, ["L:X=Y"])
        # Each needs all 8 slots, but their working paths are disjoint, so
        # the worst single-failure reservation is 8, not 16.
        assert protection.reserved_slots("L:X=Y") == 8

    def test_overlapping_working_paths_cannot_oversubscribe(self):
        protection = SharedMeshProtection()
        protection.add_line(OtnLine("L:X=Y", "X", "Y"))
        a = OduCircuit(
            "a", ODU_LEVELS["ODU2"], ["X", "P", "Y"], backup_path=["X", "Y"]
        )
        b = OduCircuit(
            "b", ODU_LEVELS["ODU2"], ["X", "P", "Y"], backup_path=["X", "Y"]
        )
        protection.register(a, ["L:X=Y"])
        with pytest.raises(CapacityExceededError):
            protection.register(b, ["L:X=Y"])

    def test_unregister_releases_reservation(self, mesh):
        ckt = make_circuit("c1", ["A", "B", "C"], ["A", "D", "C"])
        mesh.register(ckt, ["L:A=D", "L:C=D"])
        mesh.unregister("c1")
        assert mesh.reserved_slots("L:A=D") == 0

    def test_unregister_unknown(self, mesh):
        with pytest.raises(ResourceError):
            mesh.unregister("ghost")

    def test_duplicate_line_rejected(self, mesh):
        with pytest.raises(ConfigurationError):
            mesh.add_line(OtnLine("L:A=B", "A", "B"))

    def test_remove_line_refuses_a_reserved_line(self, mesh):
        ckt = make_circuit("c1", ["A", "B", "C"], ["A", "D", "C"])
        mesh.register(ckt, ["L:A=D", "L:C=D"])
        with pytest.raises(ResourceError):
            mesh.remove_line("L:A=D")
        assert mesh.reserved_slots("L:A=D") == 1
        mesh.unregister("c1")
        line = mesh.remove_line("L:A=D")
        assert line.line_id == "L:A=D"
        with pytest.raises(ConfigurationError):
            mesh.line("L:A=D")
        assert mesh.reserved_slots("L:A=D") == 0

    def test_remove_unknown_line(self, mesh):
        with pytest.raises(ConfigurationError):
            mesh.remove_line("ghost")


class TestRestoration:
    def setup_circuit(self, mesh):
        ckt = make_circuit("c1", ["A", "B", "C"], ["A", "D", "C"])
        ckt.transition(OduCircuitState.SETTING_UP)
        ckt.transition(OduCircuitState.UP)
        mesh.register(ckt, ["L:A=D", "L:C=D"])
        return ckt

    def test_circuits_hit_by_failure(self, mesh):
        ckt = self.setup_circuit(mesh)
        assert mesh.circuits_hit_by(("A", "B")) == [ckt]
        assert mesh.circuits_hit_by(("B", "A")) == [ckt]
        assert mesh.circuits_hit_by(("A", "D")) == []

    def test_restore_is_subsecond(self, mesh):
        ckt = self.setup_circuit(mesh)
        duration = mesh.restore("c1")
        assert 0 < duration < 1.0
        assert ckt.state is OduCircuitState.ON_BACKUP
        assert ckt.backup_line_ids == ["L:A=D", "L:C=D"]

    def test_restore_allocates_real_slots(self, mesh):
        self.setup_circuit(mesh)
        mesh.restore("c1")
        assert mesh.line("L:A=D").owner_of(0) == "c1"
        assert mesh.line("L:C=D").owner_of(0) == "c1"

    def test_restore_unknown_circuit(self, mesh):
        with pytest.raises(ResourceError):
            mesh.restore("ghost")

    def test_revert_frees_backup_slots(self, mesh):
        ckt = self.setup_circuit(mesh)
        mesh.restore("c1")
        mesh.revert("c1")
        assert ckt.state is OduCircuitState.UP
        assert mesh.line("L:A=D").free_slot_count() == 8

    def test_revert_requires_on_backup(self, mesh):
        self.setup_circuit(mesh)
        with pytest.raises(ResourceError):
            mesh.revert("c1")

    def test_partial_restore_rolls_back(self, mesh):
        """A double failure mid-restore must not leak backup slots.

        If the second backup hop is down, the slots grabbed on the first
        hop must be returned (regression test for a leak found by the
        random-operations property test).
        """
        ckt = self.setup_circuit(mesh)
        mesh.line("L:C=D").fail()  # second backup hop is dead
        with pytest.raises((CapacityExceededError, ResourceError)):
            mesh.restore("c1")
        assert mesh.line("L:A=D").free_slot_count() == 8
        assert ckt.backup_line_ids == []

    def test_restore_time_scales_with_hops(self):
        protection = SharedMeshProtection()
        for i in range(6):
            protection.add_line(OtnLine(f"L{i}", f"N{i}", f"N{i + 1}"))
        protection.add_line(OtnLine("SHORT", "N0", "N6"))
        long_backup = OduCircuit(
            "long",
            ODU_LEVELS["ODU0"],
            ["N0", "N6"],
            backup_path=[f"N{i}" for i in range(7)],
        )
        long_backup.transition(OduCircuitState.SETTING_UP)
        long_backup.transition(OduCircuitState.UP)
        protection.register(long_backup, [f"L{i}" for i in range(6)])
        short = OduCircuit(
            "short",
            ODU_LEVELS["ODU0"],
            ["N0", "N3", "N6"],
            backup_path=["N0", "N6"],
        )
        short.transition(OduCircuitState.SETTING_UP)
        short.transition(OduCircuitState.UP)
        # Working path links don't exist as lines; that's fine — only the
        # backup lines must be managed.
        protection.register(short, ["SHORT"])
        assert protection.restore("long") > protection.restore("short")
