"""OTN switches: electrical cross-connects at ODU0 granularity.

An OTN switch sits at a node with *client ports* (where the FXC delivers
customer signals) and *line attachments* (OTN lines toward neighboring
switches).  It cross-connects client signals into tributary slots and
slots between lines — the grooming capability the FXC lacks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import CapacityExceededError, ConfigurationError, EquipmentError
from repro.otn.line import OtnLine


class OtnSwitch:
    """The OTN switch at one node."""

    def __init__(self, node: str, client_port_count: int = 16) -> None:
        if client_port_count < 1:
            raise ConfigurationError(
                f"need >= 1 client port, got {client_port_count}"
            )
        self.node = node
        self.client_port_count = client_port_count
        self._client_owner: Dict[int, str] = {}
        self._lines: Dict[str, OtnLine] = {}
        # far end -> line id -> line, in attach order: a hop reads only
        # the lines toward its next node.
        self._toward: Dict[str, Dict[str, OtnLine]] = {}

    # -- client ports -----------------------------------------------------------

    def claim_client_port(self, owner: str) -> int:
        """Claim the lowest free client port; returns its index.

        Raises:
            CapacityExceededError: if every port is taken.
        """
        for port in range(self.client_port_count):
            if port not in self._client_owner:
                self._client_owner[port] = owner
                return port
        raise CapacityExceededError(
            f"OTN switch at {self.node} has no free client port"
        )

    def release_client_port(self, port: int, owner: str) -> None:
        """Release a client port.

        Raises:
            EquipmentError: if the port is idle, unknown, or not ``owner``'s.
        """
        if not 0 <= port < self.client_port_count:
            raise EquipmentError(
                f"OTN switch at {self.node} has no client port {port}"
            )
        current = self._client_owner.get(port)
        if current is None:
            raise EquipmentError(
                f"OTN switch at {self.node} client port {port} is idle"
            )
        if current != owner:
            raise EquipmentError(
                f"OTN switch at {self.node} client port {port} is held by "
                f"{current!r}, not {owner!r}"
            )
        del self._client_owner[port]

    def free_client_ports(self) -> List[int]:
        """Indices of idle client ports."""
        return [
            p for p in range(self.client_port_count) if p not in self._client_owner
        ]

    def client_port_owners(self) -> Dict[int, str]:
        """Current client-port ownership (port -> owner), for auditing."""
        return dict(self._client_owner)

    # -- lines ----------------------------------------------------------------

    def attach_line(self, line: OtnLine) -> None:
        """Attach an OTN line that terminates at this switch.

        Raises:
            ConfigurationError: if the line does not terminate here or a
                line with the same id is already attached.
        """
        if self.node not in (line.a, line.b):
            raise ConfigurationError(
                f"line {line.line_id} ({line.a}-{line.b}) does not "
                f"terminate at {self.node}"
            )
        if line.line_id in self._lines:
            raise ConfigurationError(f"line {line.line_id} already attached")
        self._lines[line.line_id] = line
        far = line.b if line.a == self.node else line.a
        self._toward.setdefault(far, {})[line.line_id] = line

    def detach_line(self, line_id: str) -> OtnLine:
        """Detach an attached line; returns it.

        Raises:
            ConfigurationError: if no line with this id is attached.
        """
        line = self._lines.pop(line_id, None)
        if line is None:
            raise ConfigurationError(
                f"line {line_id} is not attached at {self.node}"
            )
        far = line.b if line.a == self.node else line.a
        del self._toward[far][line_id]
        return line

    @property
    def lines(self) -> List[OtnLine]:
        """All attached lines."""
        return list(self._lines.values())

    def lines_toward(self, neighbor: str) -> List[OtnLine]:
        """Attached lines whose far end is ``neighbor``, in attach order."""
        return list(self._toward.get(neighbor, {}).values())

    def best_line_toward(
        self, neighbor: str, slots_needed: int
    ) -> Optional[OtnLine]:
        """The most-filled working line toward ``neighbor`` that still fits.

        Best-fit packing concentrates circuits on already-used wavelengths,
        which is exactly the packing efficiency the paper credits the OTN
        layer with (§2.1).  Ties in fill go to the larger line id; the
        pair is unique, so the pick is independent of attach order.
        Returns ``None`` if no line fits.
        """
        bucket = self._toward.get(neighbor)
        if not bucket:
            return None
        best: Optional[OtnLine] = None
        best_key = None
        for line in bucket.values():
            if line.failed or line.free_slot_count() < slots_needed:
                continue
            key = (line.utilization(), line.line_id)
            if best is None or key > best_key:
                best, best_key = line, key
        return best

    def __repr__(self) -> str:
        return (
            f"OtnSwitch({self.node}, clients="
            f"{len(self._client_owner)}/{self.client_port_count}, "
            f"lines={len(self._lines)})"
        )
