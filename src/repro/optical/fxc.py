"""Client-side fiber cross-connects (FXCs).

The FXC is a photonic patch panel: it connects any of its ports to any
other port, one-to-one, with no grooming and no rate awareness.  GRIPhoN
places an FXC between the customer-facing equipment and both the OTs and
the OTN switch, so the controller can steer a customer signal either
directly onto the DWDM layer (wavelength service) or into the OTN switch
(sub-wavelength service), and can share OTs and regens across customers
(paper §2.2: low cost, small footprint, low power — but incapable of
grooming).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, EquipmentError


class FiberCrossConnect:
    """An N-port photonic cross-connect with one-to-one port mapping."""

    __slots__ = ("fxc_id", "_port_count", "_peer", "_owner", "_labels")

    def __init__(self, fxc_id: str, port_count: int) -> None:
        if port_count < 2:
            raise ConfigurationError(
                f"an FXC needs at least 2 ports, got {port_count}"
            )
        self.fxc_id = fxc_id
        self._port_count = port_count
        self._peer: Dict[int, int] = {}
        self._owner: Dict[int, str] = {}
        self._labels: Dict[int, str] = {}

    @property
    def port_count(self) -> int:
        """Number of ports on the cross-connect."""
        return self._port_count

    def label_port(self, port: int, label: str) -> None:
        """Attach a human-readable label (what's patched into the port)."""
        self._validate_port(port)
        self._labels[port] = label

    def port_label(self, port: int) -> str:
        """The label of ``port`` (empty string if unlabeled)."""
        self._validate_port(port)
        return self._labels.get(port, "")

    def peer_of(self, port: int) -> Optional[int]:
        """The port connected to ``port``, or None."""
        self._validate_port(port)
        return self._peer.get(port)

    def connect(self, a: int, b: int, owner: str) -> None:
        """Cross-connect ports ``a`` and ``b`` for ``owner``.

        Raises:
            EquipmentError: if either port is already connected or a == b.
        """
        self._validate_port(a)
        self._validate_port(b)
        if a == b:
            raise EquipmentError(f"cannot connect port {a} to itself")
        for port in (a, b):
            if port in self._peer:
                raise EquipmentError(
                    f"{self.fxc_id} port {port} already connected to "
                    f"port {self._peer[port]} for {self._owner[port]!r}"
                )
        self._peer[a] = b
        self._peer[b] = a
        self._owner[a] = owner
        self._owner[b] = owner

    def disconnect(self, port: int, owner: str) -> None:
        """Remove the cross-connect involving ``port``.

        Raises:
            EquipmentError: if the port is idle or owned by someone else.
        """
        self._validate_port(port)
        peer = self._peer.get(port)
        if peer is None:
            raise EquipmentError(f"{self.fxc_id} port {port} is not connected")
        if self._owner[port] != owner:
            raise EquipmentError(
                f"{self.fxc_id} port {port} is held by "
                f"{self._owner[port]!r}, not {owner!r}"
            )
        for p in (port, peer):
            del self._peer[p]
            del self._owner[p]

    def free_ports(self) -> List[int]:
        """Ports with no cross-connect."""
        return [p for p in range(self._port_count) if p not in self._peer]

    def first_free_pair(self) -> Optional[Tuple[int, int]]:
        """``free_ports()[:2]`` without listing the rest; None if under two."""
        idle = (p for p in range(self._port_count) if p not in self._peer)
        a, b = next(idle, None), next(idle, None)
        return None if b is None else (a, b)

    def connections(self) -> List[Tuple[int, int, str]]:
        """All cross-connects as ``(low_port, high_port, owner)`` tuples."""
        seen = set()
        result = []
        for a, b in self._peer.items():
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            result.append((key[0], key[1], self._owner[a]))
        return sorted(result)

    def _validate_port(self, port: int) -> None:
        if not 0 <= port < self._port_count:
            raise EquipmentError(
                f"{self.fxc_id} has no port {port} (ports: 0..{self._port_count - 1})"
            )
