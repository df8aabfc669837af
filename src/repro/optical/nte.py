"""Network-terminating equipment (NTE) on the customer premises.

The NTE is the demarcation point: the customer sees only its interfaces
— channelized for sub-wavelength connections, un-channelized for full
wavelength connections (paper §2.2, "Customer GUI").  In the testbed a
10G/40G muxponder emulates the NTE, with four 10G client ports on the
customer side and a 40G line toward the carrier's central office.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CapacityExceededError, ConfigurationError, EquipmentError
from repro.units import GBPS, format_rate


class NetworkTerminatingEquipment:
    """The customer-facing demarcation box at one premises.

    Exposes a fixed set of client interfaces.  Each interface is either
    *channelized* (carries multiple sub-rate channels, e.g. 10 x 1G) or
    *un-channelized* (one signal at the full interface rate).
    """

    def __init__(
        self,
        nte_id: str,
        premises: str,
        interface_rate_bps: float = 10 * GBPS,
        interface_count: int = 4,
        subchannel_rate_bps: float = 1 * GBPS,
    ) -> None:
        if interface_rate_bps <= 0:
            raise ConfigurationError("interface rate must be positive")
        if interface_count < 1:
            raise ConfigurationError(
                f"need >= 1 interface, got {interface_count}"
            )
        if subchannel_rate_bps <= 0 or subchannel_rate_bps > interface_rate_bps:
            raise ConfigurationError(
                "subchannel rate must be positive and fit the interface"
            )
        self.nte_id = nte_id
        self.premises = premises
        self.interface_rate_bps = interface_rate_bps
        self.interface_count = interface_count
        #: Sub-channels per channelized interface (e.g. ten 1G in a 10G).
        self.subchannels_per_interface = int(
            interface_rate_bps / subchannel_rate_bps
        )
        self._owners: Dict[int, str] = {}
        self._channelized: Dict[int, bool] = {}
        # (interface, subchannel) -> owner, for channelized interfaces.
        self._subchannel_owner: Dict[tuple, str] = {}
        # How many claimed interfaces are channelized, so capacity()
        # needs no scan of ``_channelized``.
        self._channelized_count = 0

    def claim_interface(self, owner: str, channelized: bool) -> int:
        """Claim the lowest free interface; returns its index.

        Args:
            owner: The connection id taking the interface.
            channelized: True for sub-wavelength service, False for a
                full-wavelength service.

        Raises:
            CapacityExceededError: if all interfaces are in use.
        """
        for index in range(self.interface_count):
            if index not in self._owners:
                self._owners[index] = owner
                self._channelized[index] = channelized
                self._channelized_count += channelized
                return index
        raise self.no_free_interface()

    def no_free_interface(self) -> CapacityExceededError:
        """The error a claim raises when every interface is taken."""
        return CapacityExceededError(
            f"{self.nte_id} at {self.premises} has no free interface"
        )

    def release_interface(self, index: int, owner: str) -> None:
        """Release interface ``index``.

        Raises:
            EquipmentError: if idle, unknown, or held by someone else.
        """
        self._validate(index)
        current = self._owners.get(index)
        if current is None:
            raise EquipmentError(f"{self.nte_id} interface {index} is idle")
        if current != owner:
            raise EquipmentError(
                f"{self.nte_id} interface {index} is held by {current!r}, "
                f"not {owner!r}"
            )
        del self._owners[index]
        self._channelized_count -= self._channelized.pop(index)

    def claim_subchannel(self, owner: str) -> tuple:
        """Claim one sub-channel on a channelized interface.

        Channelized interfaces are shared: the 1/10G multiplexer
        aggregates up to ``subchannels_per_interface`` customer feeds
        onto one interface.  A new channelized interface is claimed
        (owned by the NTE's mux, tagged ``'shared'``) only when every
        existing one is full.

        Returns:
            ``(interface_index, subchannel_index)``.

        Raises:
            CapacityExceededError: when everything is full.
        """
        for index in range(self.interface_count):
            if not self._channelized.get(index, False):
                continue
            for sub in range(self.subchannels_per_interface):
                if (index, sub) not in self._subchannel_owner:
                    self._subchannel_owner[(index, sub)] = owner
                    return index, sub
        index = self.claim_interface("shared", channelized=True)
        self._subchannel_owner[(index, 0)] = owner
        return index, 0

    def release_subchannel(self, index: int, sub: int, owner: str) -> None:
        """Release a sub-channel; frees the interface when it empties.

        Raises:
            EquipmentError: if the sub-channel is idle or not ``owner``'s.
        """
        current = self._subchannel_owner.get((index, sub))
        if current is None:
            raise EquipmentError(
                f"{self.nte_id} interface {index} sub {sub} is idle"
            )
        if current != owner:
            raise EquipmentError(
                f"{self.nte_id} interface {index} sub {sub} is held by "
                f"{current!r}, not {owner!r}"
            )
        del self._subchannel_owner[(index, sub)]
        if not any(i == index for i, _ in self._subchannel_owner):
            self.release_interface(index, "shared")

    def capacity(self) -> Tuple[int, int]:
        """``(free interfaces, free sub-channels on channelized ones)``.

        O(1): what a run of :meth:`claim_interface` and
        :meth:`claim_subchannel` calls can still take, without walking
        the interface table.
        """
        return (
            self.interface_count - len(self._owners),
            self._channelized_count * self.subchannels_per_interface
            - len(self._subchannel_owner),
        )

    def subchannel_owner(self, index: int, sub: int) -> Optional[str]:
        """Who holds a sub-channel, or None."""
        return self._subchannel_owner.get((index, sub))

    def owner_of(self, index: int) -> Optional[str]:
        """Who holds interface ``index``, or None."""
        self._validate(index)
        return self._owners.get(index)

    def is_channelized(self, index: int) -> bool:
        """Whether interface ``index`` is configured channelized.

        Raises:
            EquipmentError: if the interface is idle.
        """
        self._validate(index)
        if index not in self._channelized:
            raise EquipmentError(f"{self.nte_id} interface {index} is idle")
        return self._channelized[index]

    def free_interfaces(self) -> List[int]:
        """Indices of unclaimed interfaces."""
        return [i for i in range(self.interface_count) if i not in self._owners]

    def customer_view(self) -> List[str]:
        """The interface table the customer GUI shows for this premises."""
        rows = []
        for index in range(self.interface_count):
            owner = self._owners.get(index)
            if owner is None:
                status = "free"
            elif self._channelized[index]:
                used = sum(1 for i, _ in self._subchannel_owner if i == index)
                if owner == "shared":
                    status = (
                        f"channelized, {used}/"
                        f"{self.subchannels_per_interface} sub-channels"
                    )
                else:
                    status = f"channelized for {owner}"
            else:
                status = f"wavelength for {owner}"
            rows.append(
                f"{self.nte_id} if{index} "
                f"[{format_rate(self.interface_rate_bps)}]: {status}"
            )
        return rows

    def _validate(self, index: int) -> None:
        if not 0 <= index < self.interface_count:
            raise EquipmentError(
                f"{self.nte_id} has no interface {index} "
                f"(interfaces: 0..{self.interface_count - 1})"
            )
