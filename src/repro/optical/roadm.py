"""Multi-degree ROADM nodes with colorless, non-directional add/drop.

A ROADM has one *degree* per inter-node fiber pair and a bank of
add/drop ports where transponders attach.  Modern deployments (and the
GRIPhoN testbed) use ports that are both **colorless** — any port can
carry any wavelength — and **non-directional** ("steerable") — any
port's signal can be routed to any degree.  Both properties are modeled
as flags so ablation experiments can quantify what they buy.

Per degree, a wavelength can be used by at most one signal; the ROADM
enforces that invariant across add/drop and express connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    ConfigurationError,
    EquipmentError,
    WavelengthBlockedError,
)
from repro.optical.wavelength import WavelengthGrid


@dataclass
class AddDropPort:
    """One add/drop port on a ROADM.

    Attributes:
        port_id: Unique id within the node, e.g. ``'AD:ROADM-I:2'``.
        fixed_degree: For directional (non-steerable) ports, the only
            degree this port can reach; ``None`` means non-directional.
        fixed_channel: For colored ports, the only channel this port can
            carry; ``None`` means colorless.
    """

    port_id: str
    fixed_degree: Optional[str] = None
    fixed_channel: Optional[int] = None
    connected_degree: Optional[str] = None
    connected_channel: Optional[int] = None
    owner: Optional[str] = None

    @property
    def in_use(self) -> bool:
        """True while the port carries a signal."""
        return self.owner is not None


class Roadm:
    """One reconfigurable optical add/drop multiplexer node."""

    def __init__(
        self,
        name: str,
        grid: WavelengthGrid,
        colorless: bool = True,
        non_directional: bool = True,
    ) -> None:
        self.name = name
        self._grid = grid
        self._colorless = colorless
        self._non_directional = non_directional
        self._degrees: Set[str] = set()
        self._ports: Dict[str, AddDropPort] = {}
        self._port_counter = 0
        # degree -> channel -> owner, covering add/drop and express usage.
        self._degree_channels: Dict[str, Dict[int, str]] = {}
        # (deg_in, deg_out, channel) -> owner for express connections.
        self._express: Dict[Tuple[str, str, int], str] = {}

    # -- construction --------------------------------------------------------

    @property
    def degrees(self) -> Set[str]:
        """Neighbor node names this ROADM has fiber degrees toward."""
        return set(self._degrees)

    @property
    def degree_count(self) -> int:
        """The ROADM's degree (2-degree, 3-degree, ...)."""
        return len(self._degrees)

    def add_degree(self, toward: str) -> None:
        """Add a fiber degree toward neighbor node ``toward``."""
        if toward == self.name:
            raise ConfigurationError(f"ROADM {self.name} cannot face itself")
        if toward in self._degrees:
            raise ConfigurationError(
                f"ROADM {self.name} already has a degree toward {toward}"
            )
        self._degrees.add(toward)
        self._degree_channels[toward] = {}

    def add_ports(
        self,
        count: int,
        fixed_degree: Optional[str] = None,
        fixed_channel: Optional[int] = None,
    ) -> List[AddDropPort]:
        """Install add/drop ports.

        For a colorless, non-directional ROADM leave both ``fixed_*``
        arguments as ``None``.  Directional ROADMs must pin each port to
        a degree; colored ROADMs must pin each port to a channel.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if not self._non_directional and fixed_degree is None:
            raise ConfigurationError(
                f"ROADM {self.name} is directional; ports need a fixed_degree"
            )
        if not self._colorless and fixed_channel is None:
            raise ConfigurationError(
                f"ROADM {self.name} is colored; ports need a fixed_channel"
            )
        if fixed_degree is not None and fixed_degree not in self._degrees:
            raise ConfigurationError(
                f"ROADM {self.name} has no degree toward {fixed_degree}"
            )
        if fixed_channel is not None:
            self._grid.validate(fixed_channel)
        created = []
        for _ in range(count):
            port_id = f"AD:{self.name}:{self._port_counter}"
            self._port_counter += 1
            port = AddDropPort(port_id, fixed_degree, fixed_channel)
            self._ports[port_id] = port
            created.append(port)
        return created

    # -- lookup ----------------------------------------------------------------

    @property
    def ports(self) -> List[AddDropPort]:
        """All add/drop ports."""
        return list(self._ports.values())

    def port(self, port_id: str) -> AddDropPort:
        """Look up a port by id.

        Raises:
            EquipmentError: for an unknown id.
        """
        try:
            return self._ports[port_id]
        except KeyError:
            raise EquipmentError(f"no port {port_id!r} on ROADM {self.name}") from None

    def _idle_ports(
        self, degree: Optional[str], channel: Optional[int]
    ) -> Iterator[AddDropPort]:
        return (
            port
            for port in self._ports.values()
            if not port.in_use
            and (
                degree is None
                or port.fixed_degree is None
                or port.fixed_degree == degree
            )
            and (
                channel is None
                or port.fixed_channel is None
                or port.fixed_channel == channel
            )
        )

    def free_ports(
        self, degree: Optional[str] = None, channel: Optional[int] = None
    ) -> List[AddDropPort]:
        """Idle ports able to reach ``degree`` and carry ``channel``."""
        return list(self._idle_ports(degree, channel))

    def first_free_port(
        self, degree: Optional[str] = None, channel: Optional[int] = None
    ) -> Optional[AddDropPort]:
        """The port ``free_ports`` would list first, or None."""
        return next(self._idle_ports(degree, channel), None)

    def channel_owner(self, degree: str, channel: int) -> Optional[str]:
        """Who uses ``channel`` on ``degree``, or None."""
        self._require_degree(degree)
        self._grid.validate(channel)
        return self._degree_channels[degree].get(channel)

    def free_channels(self, degree: str) -> Set[int]:
        """Channels unused on ``degree`` at this node."""
        self._require_degree(degree)
        used = self._degree_channels[degree]
        return {ch for ch in self._grid.channels() if ch not in used}

    # -- cross-connections --------------------------------------------------------

    def connect_add_drop(
        self, port_id: str, degree: str, channel: int, owner: str
    ) -> None:
        """Route an add/drop port's signal onto ``channel`` toward ``degree``.

        Raises:
            EquipmentError: if the port is busy or cannot reach the degree
                or channel (directional/colored restrictions).
            WavelengthBlockedError: if the channel is taken on the degree.
        """
        port = self.port(port_id)
        self._require_degree(degree)
        self._grid.validate(channel)
        if port.in_use:
            raise EquipmentError(f"port {port_id} is in use by {port.owner!r}")
        if port.fixed_degree is not None and port.fixed_degree != degree:
            raise EquipmentError(
                f"directional port {port_id} is wired to degree "
                f"{port.fixed_degree}, not {degree}"
            )
        if port.fixed_channel is not None and port.fixed_channel != channel:
            raise EquipmentError(
                f"colored port {port_id} carries channel "
                f"{port.fixed_channel}, not {channel}"
            )
        holder = self._degree_channels[degree].get(channel)
        if holder is not None:
            raise WavelengthBlockedError(
                f"channel {channel} on {self.name}->{degree} held by {holder!r}"
            )
        self._degree_channels[degree][channel] = owner
        port.connected_degree = degree
        port.connected_channel = channel
        port.owner = owner

    def disconnect_add_drop(self, port_id: str, owner: str) -> None:
        """Tear down a port's add/drop connection.

        Raises:
            EquipmentError: if the port is idle or held by someone else.
        """
        port = self.port(port_id)
        if port.owner is None:
            raise EquipmentError(f"port {port_id} is not connected")
        if port.owner != owner:
            raise EquipmentError(
                f"port {port_id} is held by {port.owner!r}, not {owner!r}"
            )
        degree = port.connected_degree
        channel = port.connected_channel
        del self._degree_channels[degree][channel]
        port.connected_degree = None
        port.connected_channel = None
        port.owner = None

    def connect_express(
        self, degree_in: str, degree_out: str, channel: int, owner: str
    ) -> None:
        """Pass ``channel`` through between two degrees without OEO.

        Raises:
            WavelengthBlockedError: if the channel is busy on either degree.
            EquipmentError: for identical degrees.
        """
        self._require_degree(degree_in)
        self._require_degree(degree_out)
        self._grid.validate(channel)
        if degree_in == degree_out:
            raise EquipmentError(
                f"express connection needs two distinct degrees, got {degree_in}"
            )
        for degree in (degree_in, degree_out):
            holder = self._degree_channels[degree].get(channel)
            if holder is not None:
                raise WavelengthBlockedError(
                    f"channel {channel} on {self.name}->{degree} held by {holder!r}"
                )
        self._degree_channels[degree_in][channel] = owner
        self._degree_channels[degree_out][channel] = owner
        self._express[(degree_in, degree_out, channel)] = owner

    def disconnect_express(
        self, degree_in: str, degree_out: str, channel: int, owner: str
    ) -> None:
        """Tear down an express connection.

        Raises:
            EquipmentError: if no such express connection exists or the
                owner does not match.
        """
        key = (degree_in, degree_out, channel)
        holder = self._express.get(key)
        if holder is None:
            raise EquipmentError(
                f"no express connection {degree_in}->{degree_out} "
                f"ch{channel} on {self.name}"
            )
        if holder != owner:
            raise EquipmentError(
                f"express connection held by {holder!r}, not {owner!r}"
            )
        del self._express[key]
        del self._degree_channels[degree_in][channel]
        del self._degree_channels[degree_out][channel]

    def express_owner(
        self, degree_in: str, degree_out: str, channel: int
    ) -> Optional[str]:
        """Who holds that express connection, or None if there is none."""
        return self._express.get((degree_in, degree_out, channel))

    def express_connections(self) -> List[Tuple[str, str, int, str]]:
        """All express cross-connects as (degree_in, degree_out, channel,
        owner), sorted — the audit's view of the switching fabric."""
        return sorted(
            (a, b, channel, owner)
            for (a, b, channel), owner in self._express.items()
        )

    # -- internals ------------------------------------------------------------

    def _require_degree(self, degree: str) -> None:
        if degree not in self._degrees:
            raise EquipmentError(
                f"ROADM {self.name} has no degree toward {degree} "
                f"(degrees: {sorted(self._degrees)})"
            )

    def __repr__(self) -> str:
        return (
            f"Roadm({self.name}, degree={self.degree_count}, "
            f"ports={len(self._ports)})"
        )
