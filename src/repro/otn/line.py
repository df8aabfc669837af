"""OTN lines: tributary-slot capacity between two OTN switches.

An OTN line is a wavelength (e.g. an ODU2 over a 10G lightpath) whose
payload is divided into 1.25G tributary slots.  ODU0 circuits take one
slot, ODU1 two, and so on.  Unlike the photonic layer there is no
continuity constraint — each line allocates slots independently because
the switches regenerate electrically.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import CapacityExceededError, ConfigurationError, ResourceError
from repro.units import ODU_LEVELS, OduLevel


class OtnLine:
    """One wavelength's worth of tributary slots between two switches.

    Attributes:
        line_id: Unique id, e.g. ``'OTNLINE:NYC=CHI:0'``.
        a: One endpoint node.
        b: Other endpoint node.
        level: The line's ODU level (typically ODU2 or ODU3).
    """

    def __init__(self, line_id: str, a: str, b: str, level: OduLevel = None) -> None:
        if a == b:
            raise ConfigurationError(f"OTN line endpoints must differ, got {a}")
        self.line_id = line_id
        self.a = a
        self.b = b
        self.level = level or ODU_LEVELS["ODU2"]
        self._slot_owner: Dict[int, str] = {}
        self._failed = False

    @property
    def key(self) -> Tuple[str, str]:
        """Canonical endpoint pair."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    @property
    def slot_count(self) -> int:
        """Total tributary slots on the line."""
        return self.level.tributary_slots

    @property
    def failed(self) -> bool:
        """True while the underlying wavelength is down."""
        return self._failed

    def free_slots(self) -> List[int]:
        """Indices of unallocated tributary slots."""
        return [s for s in range(self.slot_count) if s not in self._slot_owner]

    def free_slot_count(self) -> int:
        """Number of unallocated slots."""
        return self.slot_count - len(self._slot_owner)

    def owner_of(self, slot: int) -> str:
        """Owner of ``slot`` or empty string when free."""
        self._validate(slot)
        return self._slot_owner.get(slot, "")

    def allocate(self, slots_needed: int, owner: str) -> List[int]:
        """Allocate ``slots_needed`` slots to ``owner``; returns the indices.

        Raises:
            CapacityExceededError: if not enough slots are free.
            ResourceError: if the line is failed.
        """
        if slots_needed < 1:
            raise ConfigurationError(f"need >= 1 slot, got {slots_needed}")
        if self._failed:
            raise ResourceError(f"line {self.line_id} is failed")
        free = self.free_slots()
        if len(free) < slots_needed:
            raise CapacityExceededError(
                f"line {self.line_id} has {len(free)} free slots, "
                f"need {slots_needed}"
            )
        taken = free[:slots_needed]
        for slot in taken:
            self._slot_owner[slot] = owner
        return taken

    def release_owner(self, owner: str) -> int:
        """Free every slot held by ``owner``; returns how many were freed.

        Raises:
            ResourceError: if the owner holds no slots on this line.
        """
        mine = [s for s, holder in self._slot_owner.items() if holder == owner]
        if not mine:
            raise ResourceError(
                f"{owner!r} holds no slots on line {self.line_id}"
            )
        for slot in mine:
            del self._slot_owner[slot]
        return len(mine)

    def owners(self) -> Set[str]:
        """All owners with at least one slot on the line."""
        return set(self._slot_owner.values())

    def fail(self) -> Set[str]:
        """Mark the line down; returns the affected owners."""
        self._failed = True
        return self.owners()

    def repair(self) -> None:
        """Bring the line back up."""
        self._failed = False

    def utilization(self) -> float:
        """Fraction of slots allocated, in [0, 1]."""
        return len(self._slot_owner) / self.slot_count

    def _validate(self, slot: int) -> None:
        if not 0 <= slot < self.slot_count:
            raise ConfigurationError(
                f"line {self.line_id} has no slot {slot} "
                f"(slots: 0..{self.slot_count - 1})"
            )
