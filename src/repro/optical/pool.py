"""Installed equipment as a count: per-class bitmasks plus the units in use.

An idle OT, regenerator or add/drop port carries no state, so a pool
keeps what is installed as one bitmask per class (bit ``i`` set: unit
``i`` is installed in that class), one mask of the units held, and an
element object only for each held unit.  First fit is the lowest set
bit of ``installed & ~held`` -- the unit a scan in install order would
reach first, the idiom :class:`~repro.optical.fiber.DwdmLink` uses for
channels -- so a unit's index is the number in its id
(``OT:{node}:{i}``), and a lookup parses the id back.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError, TransponderUnavailableError
from repro.units import GBPS


def popcount(mask: int) -> int:
    """Set bits in ``mask`` (``int.bit_count`` needs Python 3.10)."""
    return bin(mask).count("1")


def lowest_bit(mask: int) -> int:
    """Index of the lowest set bit of a non-zero ``mask``."""
    return (mask & -mask).bit_length() - 1


def unit_index(unit_id: str, prefix: str, count: int) -> Optional[int]:
    """The index ``unit_id`` names as ``f"{prefix}:{index}"`` among
    ``count`` installed units, or None."""
    head, _, tail = unit_id.rpartition(":")
    if head != prefix or not tail.isdigit():
        return None
    index = int(tail)
    return index if index < count and str(index) == tail else None


class PooledUnit:
    """One unit of a :class:`UnitPool`: held, or looked up while idle.

    Attributes:
        unit_id: e.g. ``'OT:ROADM-I:3'``.
        node: The node hosting the unit.
        line_rate_bps: The line rate the unit was installed for.
        index: The unit's bit in its pool's masks.
        owner: The lightpath id holding the unit, or None.
    """

    __slots__ = ("unit_id", "node", "line_rate_bps", "index", "owner")

    def __init__(
        self,
        unit_id: str,
        node: str,
        line_rate_bps: float,
        index: int,
        owner: Optional[str] = None,
    ) -> None:
        self.unit_id = unit_id
        self.node = node
        self.line_rate_bps = line_rate_bps
        self.index = index
        self.owner = owner

    @property
    def in_use(self) -> bool:
        """True while a lightpath holds the unit."""
        return self.owner is not None


class UnitPool:
    """The units of one kind installed at one node, grouped by line rate.

    Subclasses name the kind: ``unit_type`` (the element class held
    units are), ``prefix`` (ids are ``f"{prefix}:{node}:{index}"``) and
    ``noun`` (for error messages).
    """

    unit_type = PooledUnit
    prefix = "UNIT"
    noun = "unit"

    __slots__ = ("node", "_installed", "_held", "_held_mask", "_count")

    def __init__(self, node: str) -> None:
        self.node = node
        # Line rate -> bitmask of the unit indices installed at that rate.
        self._installed: Dict[float, int] = {}
        self._held: Dict[int, PooledUnit] = {}
        self._held_mask = 0
        self._count = 0

    def install(self, line_rate_bps: float, count: int = 1) -> None:
        """Install ``count`` new units of the given rate."""
        if line_rate_bps <= 0:
            raise ConfigurationError(
                f"line rate must be positive, got {line_rate_bps}"
            )
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        bits = ((1 << count) - 1) << self._count
        self._installed[line_rate_bps] = self._installed.get(line_rate_bps, 0) | bits
        self._count += count

    def _mask(self, line_rate_bps: Optional[float]) -> int:
        if line_rate_bps is None:
            return (1 << self._count) - 1
        return self._installed.get(line_rate_bps, 0)

    def installed(self, line_rate_bps: Optional[float] = None) -> int:
        """How many units are installed, optionally at one line rate."""
        return popcount(self._mask(line_rate_bps))

    def free_count(self, line_rate_bps: Optional[float] = None) -> int:
        """How many units are idle, optionally at one line rate."""
        return popcount(self._mask(line_rate_bps) & ~self._held_mask)

    def utilization(self, line_rate_bps: Optional[float] = None) -> float:
        """Fraction of matching units in use (0 if none installed)."""
        mask = self._mask(line_rate_bps)
        if not mask:
            return 0.0
        return popcount(mask & self._held_mask) / popcount(mask)

    def held(self) -> List[PooledUnit]:
        """The units in use, in index order."""
        return [self._held[index] for index in sorted(self._held)]

    def unit_id(self, index: int) -> str:
        """The id of unit ``index``."""
        return f"{self.prefix}:{self.node}:{index}"

    def owner_of(self, index: int) -> Optional[str]:
        """Who holds unit ``index``, or None."""
        unit = self._held.get(index)
        return None if unit is None else unit.owner

    def get(self, unit_id: str) -> PooledUnit:
        """The unit ``unit_id`` names: the held one, else an idle view.

        Raises:
            TransponderUnavailableError: for an id not installed here.
        """
        index = unit_index(unit_id, f"{self.prefix}:{self.node}", self._count)
        if index is None:
            raise TransponderUnavailableError(
                f"no {self.noun} {unit_id!r} at {self.node}"
            )
        unit = self._held.get(index)
        if unit is not None:
            return unit
        rate = next(r for r, mask in self._installed.items() if mask >> index & 1)
        return self.unit_type(unit_id, self.node, rate, index)

    def allocate(self, line_rate_bps: float, owner: str) -> PooledUnit:
        """Allocate the first idle unit at the given rate.

        Raises:
            TransponderUnavailableError: if none is free.
        """
        free = self._installed.get(line_rate_bps, 0) & ~self._held_mask
        if not free:
            raise TransponderUnavailableError(
                f"no free {line_rate_bps / GBPS:g}G {self.noun} at {self.node}"
            )
        index = lowest_bit(free)
        return self._hold(
            self.unit_type(self.unit_id(index), self.node, line_rate_bps, index),
            owner,
        )

    def take(self, unit_id: str, owner: str) -> PooledUnit:
        """Allocate the unit ``unit_id`` names.

        Raises:
            TransponderUnavailableError: for an unknown id or a unit
                already in use.
        """
        unit = self.get(unit_id)
        if unit.owner is not None:
            raise TransponderUnavailableError(
                f"{unit_id} is already held by {unit.owner!r}"
            )
        return self._hold(unit, owner)

    def _hold(self, unit: PooledUnit, owner: str) -> PooledUnit:
        unit.owner = owner
        self._held[unit.index] = unit
        self._held_mask |= 1 << unit.index
        return unit

    def release(self, index: int, owner: str) -> None:
        """Free unit ``index``.

        Raises:
            TransponderUnavailableError: if ``owner`` does not hold it.
        """
        holder = self.owner_of(index)
        if holder != owner:
            raise TransponderUnavailableError(
                f"{self.unit_id(index)} is held by {holder!r}, not {owner!r}"
            )
        self._held.pop(index).owner = None
        self._held_mask &= ~(1 << index)
