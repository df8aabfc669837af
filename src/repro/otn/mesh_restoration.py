"""Shared-mesh restoration for the OTN layer.

The OTN layer "can provide automatic sub-second shared-mesh restoration
similar to today's SONET layer" (paper §2.1).  In shared-mesh protection
each circuit pre-plans a backup path that is link-disjoint from its
working path, and backup capacity is *shared*: two circuits whose working
paths cannot fail together (no common link) may reserve the same backup
slots.  The manager here tracks those reservations per single-link
failure scenario, guaranteeing that any single fiber cut can be restored
without oversubscribing a backup line.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CapacityExceededError, ConfigurationError, ResourceError
from repro.obs.registry import MetricsRegistry
from repro.otn.circuit import OduCircuit, OduCircuitState
from repro.otn.line import OtnLine

#: Restoration switch timing: detection plus per-hop cross-connect, in
#: seconds.  Tuned so typical circuits restore in 50-300 ms (sub-second,
#: as the paper requires of the OTN layer).
DETECTION_TIME_S = 0.030
PER_HOP_SWITCH_S = 0.025


class SharedMeshProtection:
    """Pre-planned, capacity-shared backup paths for ODU circuits."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._metrics = metrics
        self._lines: Dict[str, OtnLine] = {}
        # backup line id -> failure scenario (working link key) -> slots.
        self._reserved: Dict[str, Dict[Tuple[str, str], int]] = {}
        # circuit id -> (circuit, working link keys, backup line ids).
        self._registry: Dict[str, Tuple[OduCircuit, List[Tuple[str, str]], List[str]]] = {}

    def add_line(self, line: OtnLine) -> None:
        """Make a line available as backup capacity.

        Raises:
            ConfigurationError: on duplicate line ids.
        """
        if line.line_id in self._lines:
            raise ConfigurationError(f"line {line.line_id} already added")
        self._lines[line.line_id] = line
        self._reserved[line.line_id] = {}

    def remove_line(self, line_id: str) -> OtnLine:
        """Withdraw a line from the backup capacity; returns it.

        Raises:
            ConfigurationError: for an unknown id.
            ResourceError: if the line still carries backup reservations:
                removing it would strip protection from live circuits.
        """
        line = self.line(line_id)
        if self._reserved[line_id]:
            raise ResourceError(
                f"line {line_id} still carries backup reservations"
            )
        del self._lines[line_id], self._reserved[line_id]
        return line

    def line(self, line_id: str) -> OtnLine:
        """Look up a managed line.

        Raises:
            ConfigurationError: for an unknown id.
        """
        try:
            return self._lines[line_id]
        except KeyError:
            raise ConfigurationError(f"unknown line {line_id!r}") from None

    # -- registration -----------------------------------------------------------

    def register(self, circuit: OduCircuit, backup_line_ids: List[str]) -> None:
        """Register a circuit's pre-planned backup route.

        Args:
            circuit: The circuit; its ``backup_path`` must be set and
                link-disjoint from its working path.
            backup_line_ids: One managed line id per backup-path hop.

        Raises:
            ConfigurationError: if the backup plan is malformed.
            CapacityExceededError: if sharing cannot absorb the new
                reservation under some single-failure scenario.
        """
        if circuit.backup_path is None or len(circuit.backup_path) < 2:
            raise ConfigurationError(
                f"circuit {circuit.circuit_id} has no backup path"
            )
        if len(backup_line_ids) != len(circuit.backup_path) - 1:
            raise ConfigurationError(
                f"circuit {circuit.circuit_id}: backup path has "
                f"{len(circuit.backup_path) - 1} hops but "
                f"{len(backup_line_ids)} line ids were given"
            )
        if circuit.circuit_id in self._registry:
            raise ConfigurationError(
                f"circuit {circuit.circuit_id} already registered"
            )
        working_links = _link_keys(circuit.path)
        backup_links = set(_link_keys(circuit.backup_path))
        overlap = set(working_links) & backup_links
        if overlap:
            raise ConfigurationError(
                f"circuit {circuit.circuit_id}: backup path shares links "
                f"{sorted(overlap)} with the working path"
            )
        # Feasibility: under each single working-link failure, the total
        # backup demand on every backup line must fit its capacity.
        for line_id in backup_line_ids:
            line = self.line(line_id)
            scenarios = self._reserved[line_id]
            for failure in working_links:
                demanded = scenarios.get(failure, 0) + circuit.slots_needed
                if demanded > line.free_slot_count():
                    raise CapacityExceededError(
                        f"backup line {line_id} cannot absorb circuit "
                        f"{circuit.circuit_id} under failure of {failure}: "
                        f"needs {demanded}, has {line.free_slot_count()}"
                    )
        for line_id in backup_line_ids:
            scenarios = self._reserved[line_id]
            for failure in working_links:
                scenarios[failure] = (
                    scenarios.get(failure, 0) + circuit.slots_needed
                )
        self._registry[circuit.circuit_id] = (
            circuit,
            working_links,
            list(backup_line_ids),
        )

    def unregister(self, circuit_id: str) -> None:
        """Remove a circuit's backup reservations.

        Raises:
            ResourceError: for an unknown circuit.
        """
        entry = self._registry.pop(circuit_id, None)
        if entry is None:
            raise ResourceError(f"circuit {circuit_id!r} is not registered")
        circuit, working_links, backup_line_ids = entry
        for line_id in backup_line_ids:
            scenarios = self._reserved[line_id]
            for failure in working_links:
                scenarios[failure] -= circuit.slots_needed
                if scenarios[failure] <= 0:
                    del scenarios[failure]

    def reserved_slots(self, line_id: str) -> int:
        """Worst-case (max over failure scenarios) reservation on a line."""
        scenarios = self._reserved.get(line_id)
        if not scenarios:
            return 0
        return max(scenarios.values())

    # -- restoration ------------------------------------------------------------

    def circuits_hit_by(self, failed_link: Tuple[str, str]) -> List[OduCircuit]:
        """Registered circuits whose *working* path rides ``failed_link``."""
        key = _canonical(failed_link)
        return [
            circuit
            for circuit, working_links, _ in self._registry.values()
            if key in working_links
        ]

    def restore(self, circuit_id: str) -> float:
        """Switch a circuit to its backup path; returns the switch time.

        Allocates real slots on every backup line and moves the circuit
        to ``ON_BACKUP``.  The returned duration models failure detection
        plus per-hop cross-connection and is always sub-second for
        reasonable path lengths.

        Raises:
            ResourceError: for an unregistered circuit.
            CapacityExceededError: if a backup line lost capacity since
                registration (e.g. double failure).
        """
        entry = self._registry.get(circuit_id)
        if entry is None:
            raise ResourceError(f"circuit {circuit_id!r} is not registered")
        circuit, _, backup_line_ids = entry
        allocated = []
        try:
            for line_id in backup_line_ids:
                line = self.line(line_id)
                line.allocate(circuit.slots_needed, circuit.circuit_id)
                allocated.append(line)
        except (CapacityExceededError, ResourceError):
            # Double failure or stolen capacity: roll back the partial
            # allocation so nothing leaks, then report the failure.
            for line in allocated:
                line.release_owner(circuit.circuit_id)
            if self._metrics is not None:
                self._metrics.inc("otn.mesh.blocked")
            raise
        circuit.backup_line_ids = list(backup_line_ids)
        circuit.transition(OduCircuitState.ON_BACKUP)
        hops = len(backup_line_ids)
        switch_time = DETECTION_TIME_S + hops * PER_HOP_SWITCH_S
        if self._metrics is not None:
            self._metrics.inc("otn.mesh.restored")
            self._metrics.observe("otn.mesh.switch_s", switch_time)
        return switch_time

    def revert(self, circuit_id: str) -> None:
        """Return a restored circuit to its (repaired) working path."""
        entry = self._registry.get(circuit_id)
        if entry is None:
            raise ResourceError(f"circuit {circuit_id!r} is not registered")
        circuit, _, backup_line_ids = entry
        if circuit.state is not OduCircuitState.ON_BACKUP:
            raise ResourceError(
                f"circuit {circuit_id} is {circuit.state.value}, not on backup"
            )
        for line_id in backup_line_ids:
            self.line(line_id).release_owner(circuit.circuit_id)
        circuit.backup_line_ids = []
        circuit.transition(OduCircuitState.UP)


def _canonical(key: Tuple[str, str]) -> Tuple[str, str]:
    a, b = key
    return (a, b) if a <= b else (b, a)


def _link_keys(path: List[str]) -> List[Tuple[str, str]]:
    return [_canonical((u, v)) for u, v in zip(path, path[1:])]
