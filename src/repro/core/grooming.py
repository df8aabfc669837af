"""OTN grooming: routing sub-wavelength circuits into packed wavelengths.

"Compared to using muxponders in the DWDM layer to provide
sub-wavelength connections, the OTN layer with its switching capability
can achieve more efficient packing of wavelengths in the transport
network." (paper §2.1)

The engine routes ODU circuits hop by hop through the OTN switch mesh.
At each hop it prefers the **fullest existing line that still fits**
(best-fit packing); only when no line fits does it ask its line factory
to stand up a new OTN line — which costs a fresh wavelength.  The
number of lines created under a demand mix, versus the muxponder
baseline, is exactly experiment X3.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.inventory import InventoryDatabase
from repro.errors import (
    CapacityExceededError,
    GriphonError,
    NoPathError,
    ResourceError,
)
from repro.otn.circuit import OduCircuit
from repro.otn.line import OtnLine
from repro.otn.mesh_restoration import SharedMeshProtection
from repro.topo.graph import Adjacency
from repro.units import OduLevel

#: Creates a new OTN line between two adjacent switch nodes, or raises
#: ResourceError when no wavelength is available.  Wired by the
#: controller to wavelength provisioning; tests can use a stub.
LineFactory = Callable[[str, str], OtnLine]


class GroomingEngine:
    """Routes and packs ODU circuits over the OTN line mesh."""

    def __init__(
        self,
        inventory: InventoryDatabase,
        protection: Optional[SharedMeshProtection] = None,
        line_factory: Optional[LineFactory] = None,
    ) -> None:
        self._inventory = inventory
        self._protection = protection
        self._line_factory = line_factory
        #: (graph generation, switch count, switch-only adjacency).
        self._adjacency: Optional[Tuple[int, int, Adjacency]] = None

    # -- routing -----------------------------------------------------------------

    def switch_path(
        self,
        source: str,
        destination: str,
        excluded_links: Tuple = (),
        excluded_nodes: Tuple = (),
    ) -> List[str]:
        """Shortest path that stays on nodes hosting OTN switches.

        The search walks only the switch sites: its cost is the route's
        neighbourhood, never the nodes without a switch.

        Raises:
            NoPathError: if an endpoint hosts no OTN switch or the switch
                mesh does not connect the endpoints.
            TopologyError: for an endpoint the graph does not know.
        """
        graph = self._inventory.graph
        adjacency = self._switch_adjacency()
        for endpoint in (source, destination):
            if endpoint not in adjacency:
                graph.node(endpoint)  # TopologyError for an unknown node
                raise NoPathError(f"no OTN switch at {endpoint!r}")
        return graph.hop_path_within(
            adjacency, source, destination, excluded_links, excluded_nodes
        )

    def _switch_adjacency(self) -> Adjacency:
        """The graph restricted to OTN-switch sites, rebuilt only when
        that can change.  The inventory installs switches and never
        removes one, so the switch count names the site set."""
        graph = self._inventory.graph
        sites = self._inventory.otn_switches
        cached = self._adjacency
        if (
            cached is None
            or cached[0] != graph.generation
            or cached[1] != len(sites)
        ):
            cached = self._adjacency = (
                graph.generation, len(sites), graph.induced_adjacency(sites)
            )
        return cached[2]

    def ensure_line(self, a: str, b: str, slots_needed: int) -> OtnLine:
        """A working line a->b with room, creating one if needed and possible.

        Raises:
            CapacityExceededError: if no line fits and none can be created.
        """
        switch = self._inventory.otn_switches[a]
        line = switch.best_line_toward(b, slots_needed)
        if line is not None:
            return line
        if self._line_factory is None:
            raise CapacityExceededError(
                f"no OTN line {a}->{b} with {slots_needed} free slots and "
                f"no line factory configured"
            )
        try:
            return self._line_factory(a, b)
        except ResourceError as exc:
            raise CapacityExceededError(
                f"cannot create OTN line {a}->{b}: {exc}"
            ) from exc

    # -- circuits ----------------------------------------------------------------

    # The traced benchmark run wraps this method by name (``bench/layers.py``).
    def claim_circuit(
        self,
        source: str,
        destination: str,
        level: OduLevel,
        protect: bool = False,
        like: Optional[OduCircuit] = None,
    ) -> OduCircuit:
        """Route, pack, and allocate an ODU circuit (bookkeeping only).

        Args:
            protect: Also plan a link-disjoint backup path and register
                it with shared-mesh protection.
            like: A sibling circuit of the same order, between the same
                endpoints.  Its working and backup paths are copied
                instead of searched again: both are pure functions of
                the topology and the switch sites, neither of which an
                order's claim changes.

        Raises:
            NoPathError / CapacityExceededError: when routing or packing
                fails; partial slot allocations are rolled back, and a
                route that fails takes no circuit id.
        """
        if like is None:
            path = self.switch_path(source, destination)
        elif (like.source, like.destination) == (source, destination):
            path = list(like.path)
        else:
            raise ValueError(
                f"circuit {like.circuit_id} runs {like.source}->"
                f"{like.destination}, not {source}->{destination}"
            )
        circuit = OduCircuit(
            self._inventory.next_circuit_id(), level, path
        )
        allocated: List[OtnLine] = []
        try:
            for u, v in zip(path, path[1:]):
                line = self.ensure_line(u, v, circuit.slots_needed)
                line.allocate(circuit.slots_needed, circuit.circuit_id)
                allocated.append(line)
                circuit.line_ids.append(line.line_id)
            if protect:
                self._plan_protection(
                    circuit, None if like is None else like.backup_path
                )
        except GriphonError:
            for line in allocated:
                line.release_owner(circuit.circuit_id)
            raise
        self._inventory.register_circuit(circuit)
        return circuit

    def release_circuit(self, circuit: OduCircuit) -> None:
        """Free a circuit's working (and any active backup) slots."""
        for line_id in circuit.line_ids:
            line = self._inventory.otn_lines.get(line_id)
            if line is not None and circuit.circuit_id in line.owners():
                line.release_owner(circuit.circuit_id)
        for line_id in circuit.backup_line_ids:
            line = self._inventory.otn_lines.get(line_id)
            if line is not None and circuit.circuit_id in line.owners():
                line.release_owner(circuit.circuit_id)
        if self._protection is not None and circuit.backup_path is not None:
            try:
                self._protection.unregister(circuit.circuit_id)
            except ResourceError:
                pass  # was never registered (unprotected circuit)
        self._inventory.forget_circuit(circuit.circuit_id)

    def wavelengths_consumed(self) -> int:
        """Total OTN lines (each costs one wavelength) currently standing."""
        return len(self._inventory.otn_lines)

    def mean_line_fill(self) -> float:
        """Average slot utilization across standing lines (0 if none)."""
        lines = list(self._inventory.otn_lines.values())
        if not lines:
            return 0.0
        return sum(line.utilization() for line in lines) / len(lines)

    # -- internals ------------------------------------------------------------

    def _plan_protection(
        self, circuit: OduCircuit, sibling_backup: Optional[List[str]]
    ) -> None:
        if self._protection is None:
            raise CapacityExceededError(
                "protection requested but no shared-mesh manager configured"
            )
        if sibling_backup is not None:
            backup = list(sibling_backup)
        else:
            backup = self.switch_path(
                circuit.source,
                circuit.destination,
                excluded_links=tuple(zip(circuit.path, circuit.path[1:])),
                excluded_nodes=tuple(circuit.path[1:-1]),
            )
        backup_line_ids = []
        for u, v in zip(backup, backup[1:]):
            line = self.ensure_line(u, v, circuit.slots_needed)
            backup_line_ids.append(line.line_id)
        circuit.backup_path = backup
        self._protection.register(circuit, backup_line_ids)
