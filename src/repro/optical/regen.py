"""OEO regenerators (REGENs) and per-node pools.

A regenerator is effectively two transponders back-to-back: it terminates
the optical signal electrically and retransmits it, resetting the
accumulated impairment budget.  Crucially it can retransmit on a
*different* wavelength, so a lightpath with a regen in the middle does
not need wavelength continuity across the regen site.  Client-side FXCs
let GRIPhoN share regens among connections dynamically (paper §3).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import ConfigurationError, TransponderUnavailableError
from repro.units import GBPS


class Regenerator:
    """One OEO regenerator at a node.

    Attributes:
        regen_id: Unique identifier, e.g. ``'REGEN:CHI:0'``.
        node: Hosting node name.
        line_rate_bps: The line rate the regen supports.
    """

    def __init__(self, regen_id: str, node: str, line_rate_bps: float) -> None:
        if line_rate_bps <= 0:
            raise ConfigurationError(
                f"line rate must be positive, got {line_rate_bps}"
            )
        self.regen_id = regen_id
        self.node = node
        self.line_rate_bps = line_rate_bps
        self._owner: Optional[str] = None

    @property
    def in_use(self) -> bool:
        """True while allocated to a lightpath."""
        return self._owner is not None

    @property
    def owner(self) -> Optional[str]:
        """The lightpath id holding this regen, or None."""
        return self._owner

    def allocate(self, owner: str) -> None:
        """Reserve the regen.

        Raises:
            TransponderUnavailableError: if already in use.
        """
        if self._owner is not None:
            raise TransponderUnavailableError(
                f"{self.regen_id} is already held by {self._owner!r}"
            )
        self._owner = owner

    def release(self, owner: str) -> None:
        """Free the regen.

        Raises:
            TransponderUnavailableError: if ``owner`` does not hold it.
        """
        if self._owner != owner:
            raise TransponderUnavailableError(
                f"{self.regen_id} is held by {self._owner!r}, not {owner!r}"
            )
        self._owner = None

    def __repr__(self) -> str:
        state = f"owner={self._owner!r}" if self._owner else "idle"
        return f"Regenerator({self.regen_id}, {state})"


class RegenPool:
    """The regenerators installed at one node."""

    def __init__(self, node: str) -> None:
        self.node = node
        self._regens: Dict[str, Regenerator] = {}
        self._counter = 0

    def install(self, line_rate_bps: float, count: int = 1) -> List[Regenerator]:
        """Install ``count`` regens of the given rate; returns them."""
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        created = []
        for _ in range(count):
            regen_id = f"REGEN:{self.node}:{self._counter}"
            self._counter += 1
            regen = Regenerator(regen_id, self.node, line_rate_bps)
            self._regens[regen_id] = regen
            created.append(regen)
        return created

    @property
    def regenerators(self) -> List[Regenerator]:
        """All installed regens."""
        return list(self._regens.values())

    def _idle(self, line_rate_bps: Optional[float]) -> Iterator[Regenerator]:
        return (
            regen
            for regen in self._regens.values()
            if not regen.in_use
            and (line_rate_bps is None or regen.line_rate_bps == line_rate_bps)
        )

    def free(self, line_rate_bps: Optional[float] = None) -> List[Regenerator]:
        """Idle regens, optionally filtered by rate."""
        return list(self._idle(line_rate_bps))

    def allocate(self, line_rate_bps: float, owner: str) -> Regenerator:
        """Allocate the first idle regen at the given rate.

        Raises:
            TransponderUnavailableError: if none is free.
        """
        chosen = next(self._idle(line_rate_bps), None)
        if chosen is None:
            raise TransponderUnavailableError(
                f"no free {line_rate_bps / GBPS:g}G regenerator at {self.node}"
            )
        chosen.allocate(owner)
        return chosen
