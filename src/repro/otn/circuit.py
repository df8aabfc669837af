"""ODU circuits: sub-wavelength connections through the OTN layer."""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.errors import ConnectionStateError
from repro.units import OduLevel


class OduCircuitState(enum.Enum):
    """Life cycle of an ODU circuit."""

    PLANNED = "planned"
    SETTING_UP = "setting_up"
    UP = "up"
    ON_BACKUP = "on_backup"
    FAILED = "failed"
    RELEASED = "released"


_ALLOWED = {
    OduCircuitState.PLANNED: {OduCircuitState.SETTING_UP, OduCircuitState.RELEASED},
    OduCircuitState.SETTING_UP: {OduCircuitState.UP, OduCircuitState.RELEASED},
    OduCircuitState.UP: {
        OduCircuitState.ON_BACKUP,
        OduCircuitState.FAILED,
        OduCircuitState.RELEASED,
    },
    OduCircuitState.ON_BACKUP: {
        OduCircuitState.UP,
        OduCircuitState.FAILED,
        OduCircuitState.RELEASED,
    },
    OduCircuitState.FAILED: {
        OduCircuitState.UP,
        OduCircuitState.ON_BACKUP,
        OduCircuitState.RELEASED,
    },
    OduCircuitState.RELEASED: set(),
}


class OduCircuit:
    """One sub-wavelength connection.

    Attributes:
        circuit_id: Unique id (the *owner* string on line slots).
        level: The ODU container level (ODU0 for a 1G client).
        path: Node path through OTN switches.
        line_ids: Per-hop line ids the circuit rides (working path).
        backup_path: Optional precomputed restoration path (node list).
        backup_line_ids: Per-hop line ids on the backup path, filled in
            when shared-mesh restoration activates.
    """

    __slots__ = (
        "circuit_id", "level", "path", "line_ids", "backup_path",
        "backup_line_ids", "state", "setup_started_at", "up_at", "restored_at",
    )

    def __init__(
        self,
        circuit_id: str,
        level: OduLevel,
        path: List[str],
        line_ids: Optional[List[str]] = None,
        backup_path: Optional[List[str]] = None,
        backup_line_ids: Optional[List[str]] = None,
        state: OduCircuitState = OduCircuitState.PLANNED,
        setup_started_at: Optional[float] = None,
        up_at: Optional[float] = None,
        restored_at: Optional[float] = None,
    ) -> None:
        self.circuit_id = circuit_id
        self.level = level
        self.path = path
        self.line_ids = [] if line_ids is None else line_ids
        self.backup_path = backup_path
        self.backup_line_ids = [] if backup_line_ids is None else backup_line_ids
        self.state = state
        self.setup_started_at = setup_started_at
        self.up_at = up_at
        self.restored_at = restored_at

    @property
    def source(self) -> str:
        """First node of the working path."""
        return self.path[0]

    @property
    def destination(self) -> str:
        """Last node of the working path."""
        return self.path[-1]

    @property
    def slots_needed(self) -> int:
        """Tributary slots the circuit consumes on every line it rides."""
        return self.level.tributary_slots

    @property
    def active_path(self) -> List[str]:
        """The path currently carrying traffic (backup while restored)."""
        if self.state is OduCircuitState.ON_BACKUP and self.backup_path:
            return self.backup_path
        return self.path

    def transition(self, new_state: OduCircuitState) -> None:
        """Move the state machine to ``new_state``.

        Raises:
            ConnectionStateError: for a disallowed transition.
        """
        if new_state not in _ALLOWED[self.state]:
            raise ConnectionStateError(
                f"circuit {self.circuit_id}: cannot go "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def __str__(self) -> str:
        route = " - ".join(self.active_path)
        return f"{self.circuit_id} [{self.state.value}] {self.level.name} {route}"
