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

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import (
    ConfigurationError,
    EquipmentError,
    WavelengthBlockedError,
)
from repro.optical.pool import lowest_bit, popcount, unit_index
from repro.optical.wavelength import WavelengthGrid


class AddDropPort:
    """One add/drop port on a ROADM, while it is connected or looked up.

    Attributes:
        port_id: Unique id within the node, e.g. ``'AD:ROADM-I:2'``.
        fixed_degree: For directional (non-steerable) ports, the only
            degree this port can reach; ``None`` means non-directional.
        fixed_channel: For colored ports, the only channel this port can
            carry; ``None`` means colorless.
    """

    __slots__ = (
        "port_id", "fixed_degree", "fixed_channel", "connected_degree",
        "connected_channel", "owner",
    )

    def __init__(
        self,
        port_id: str,
        fixed_degree: Optional[str] = None,
        fixed_channel: Optional[int] = None,
        connected_degree: Optional[str] = None,
        connected_channel: Optional[int] = None,
        owner: Optional[str] = None,
    ) -> None:
        self.port_id = port_id
        self.fixed_degree = fixed_degree
        self.fixed_channel = fixed_channel
        self.connected_degree = connected_degree
        self.connected_channel = connected_channel
        self.owner = owner

    @property
    def in_use(self) -> bool:
        """True while the port carries a signal."""
        return self.owner is not None


class Roadm:
    """One reconfigurable optical add/drop multiplexer node."""

    __slots__ = (
        "name", "_grid", "_colorless", "_non_directional", "_port_classes", "_connected",
        "_connected_mask", "_port_count", "_degree_channels", "_express",
    )

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
        # Installed add/drop ports: a bitmask of port indices per
        # (fixed_degree, fixed_channel) class.  A port object exists only
        # while the port is connected (see repro.optical.pool).
        self._port_classes: Dict[Tuple[Optional[str], Optional[int]], int] = {}
        self._connected: Dict[int, AddDropPort] = {}
        self._connected_mask = 0
        self._port_count = 0
        # degree -> channel -> owner (add/drop and express); keyed by every degree.
        self._degree_channels: Dict[str, Dict[int, str]] = {}
        # (deg_in, deg_out, channel) -> owner for express connections.
        self._express: Dict[Tuple[str, str, int], str] = {}

    # -- construction --------------------------------------------------------

    @property
    def degrees(self) -> Set[str]:
        """Neighbor node names this ROADM has fiber degrees toward."""
        return set(self._degree_channels)

    @property
    def degree_count(self) -> int:
        """The ROADM's degree (2-degree, 3-degree, ...)."""
        return len(self._degree_channels)

    def add_degree(self, toward: str) -> None:
        """Add a fiber degree toward neighbor node ``toward``."""
        if toward == self.name:
            raise ConfigurationError(f"ROADM {self.name} cannot face itself")
        if toward in self._degree_channels:
            raise ConfigurationError(
                f"ROADM {self.name} already has a degree toward {toward}"
            )
        self._degree_channels[toward] = {}

    def add_ports(
        self,
        count: int,
        fixed_degree: Optional[str] = None,
        fixed_channel: Optional[int] = None,
    ) -> None:
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
        if fixed_degree is not None and fixed_degree not in self._degree_channels:
            raise ConfigurationError(
                f"ROADM {self.name} has no degree toward {fixed_degree}"
            )
        if fixed_channel is not None:
            self._grid.validate(fixed_channel)
        key = (fixed_degree, fixed_channel)
        bits = ((1 << count) - 1) << self._port_count
        self._port_classes[key] = self._port_classes.get(key, 0) | bits
        self._port_count += count

    # -- lookup ----------------------------------------------------------------

    @property
    def port_count(self) -> int:
        """How many add/drop ports are installed."""
        return self._port_count

    def connected_ports(self) -> List[AddDropPort]:
        """The ports carrying a signal, in port order."""
        return [self._connected[index] for index in sorted(self._connected)]

    def port(self, port_id: str) -> AddDropPort:
        """Look up a port by id: the connected one, else an idle view.

        Raises:
            EquipmentError: for an unknown id.
        """
        index = self._port_index(port_id)
        port = self._connected.get(index)
        return self._idle_port(index) if port is None else port

    def _port_index(self, port_id: str) -> int:
        index = unit_index(port_id, f"AD:{self.name}", self._port_count)
        if index is None:
            raise EquipmentError(f"no port {port_id!r} on ROADM {self.name}")
        return index

    def _port_class(self, index: int) -> Tuple[Optional[str], Optional[int]]:
        for key, mask in self._port_classes.items():
            if mask >> index & 1:
                return key
        raise AssertionError(f"port {index} of {self.name} is in no class")

    def _idle_port(self, index: int) -> AddDropPort:
        return AddDropPort(f"AD:{self.name}:{index}", *self._port_class(index))

    def _free_port_mask(self, degree: Optional[str], channel: Optional[int]) -> int:
        mask = 0
        for (fixed_degree, fixed_channel), bits in self._port_classes.items():
            if (
                degree is None or fixed_degree is None or fixed_degree == degree
            ) and (
                channel is None or fixed_channel is None or fixed_channel == channel
            ):
                mask |= bits
        return mask & ~self._connected_mask

    def free_port_count(
        self, degree: Optional[str] = None, channel: Optional[int] = None
    ) -> int:
        """How many idle ports can reach ``degree`` and carry ``channel``."""
        return popcount(self._free_port_mask(degree, channel))

    def first_free_port(
        self, degree: Optional[str] = None, channel: Optional[int] = None
    ) -> Optional[AddDropPort]:
        """The lowest-numbered idle port able to reach ``degree`` and
        carry ``channel``, or None."""
        free = self._free_port_mask(degree, channel)
        return self._idle_port(lowest_bit(free)) if free else None

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
    ) -> AddDropPort:
        """Route an add/drop port's signal onto ``channel`` toward
        ``degree``; returns the connected port.

        Raises:
            EquipmentError: if the port is busy or cannot reach the degree
                or channel (directional/colored restrictions).
            WavelengthBlockedError: if the channel is taken on the degree.
        """
        return self._connect(self._port_index(port_id), degree, channel, owner)

    def connect_free_port(
        self, degree: str, channel: int, owner: str
    ) -> Optional[AddDropPort]:
        """Connect the port :meth:`first_free_port` would pick; returns
        it, or None when no idle port can reach ``degree`` and carry
        ``channel``.  Raises as :meth:`connect_add_drop` does."""
        free = self._free_port_mask(degree, channel)
        return self._connect(lowest_bit(free), degree, channel, owner) if free else None

    def _connect(
        self, index: int, degree: str, channel: int, owner: str
    ) -> AddDropPort:
        port_id = f"AD:{self.name}:{index}"
        self._require_degree(degree)
        self._grid.validate(channel)
        port = self._connected.get(index)
        if port is not None:
            raise EquipmentError(f"port {port_id} is in use by {port.owner!r}")
        fixed_degree, fixed_channel = self._port_class(index)
        if fixed_degree is not None and fixed_degree != degree:
            raise EquipmentError(
                f"directional port {port_id} is wired to degree "
                f"{fixed_degree}, not {degree}"
            )
        if fixed_channel is not None and fixed_channel != channel:
            raise EquipmentError(
                f"colored port {port_id} carries channel "
                f"{fixed_channel}, not {channel}"
            )
        holder = self._degree_channels[degree].get(channel)
        if holder is not None:
            raise WavelengthBlockedError(
                f"channel {channel} on {self.name}->{degree} held by {holder!r}"
            )
        self._degree_channels[degree][channel] = owner
        port = AddDropPort(port_id, fixed_degree, fixed_channel, degree, channel, owner)
        self._connected[index] = port
        self._connected_mask |= 1 << index
        return port

    def disconnect_add_drop(self, port_id: str, owner: str) -> None:
        """Tear down a port's add/drop connection.

        Raises:
            EquipmentError: if the port is idle or held by someone else.
        """
        index = self._port_index(port_id)
        port = self._connected.get(index)
        if port is None:
            raise EquipmentError(f"port {port_id} is not connected")
        if port.owner != owner:
            raise EquipmentError(
                f"port {port_id} is held by {port.owner!r}, not {owner!r}"
            )
        del self._degree_channels[port.connected_degree][port.connected_channel]
        port.connected_degree = port.connected_channel = port.owner = None
        del self._connected[index]
        self._connected_mask &= ~(1 << index)

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
        if degree not in self._degree_channels:
            raise EquipmentError(
                f"ROADM {self.name} has no degree toward {degree} "
                f"(degrees: {sorted(self._degree_channels)})"
            )

    def __repr__(self) -> str:
        return (
            f"Roadm({self.name}, degree={self.degree_count}, "
            f"ports={self._port_count})"
        )
