"""Wavelength-tunable optical transponders (OTs) and per-node pools.

An OT converts a standard client-side optical signal to a tuned line-side
DWDM signal.  GRIPhoN installs OTs at ROADM add/drop ports; because the
ports are colorless and non-directional, *any* free OT at a node can
serve *any* wavelength toward *any* degree — which is exactly what makes
the FXC-based dynamic sharing of transponders worthwhile (paper §2.2).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import (
    ConfigurationError,
    SignalError,
    TransponderUnavailableError,
)
from repro.optical.wavelength import WavelengthGrid
from repro.units import GBPS, format_rate


class Transponder:
    """One tunable OT.

    Attributes:
        ot_id: Unique identifier, e.g. ``'OT:ROADM-I:3'``.
        node: The ROADM node hosting this OT.
        line_rate_bps: Line-side rate (10G or 40G in the testbed).
    """

    def __init__(
        self, ot_id: str, node: str, line_rate_bps: float, grid: WavelengthGrid
    ) -> None:
        if line_rate_bps <= 0:
            raise ConfigurationError(
                f"line rate must be positive, got {line_rate_bps}"
            )
        self.ot_id = ot_id
        self.node = node
        self.line_rate_bps = line_rate_bps
        self._grid = grid
        self._channel: Optional[int] = None
        self._owner: Optional[str] = None

    @property
    def in_use(self) -> bool:
        """True while the OT is allocated to a lightpath."""
        return self._owner is not None

    @property
    def channel(self) -> Optional[int]:
        """The channel the laser is tuned to, or None when idle."""
        return self._channel

    @property
    def owner(self) -> Optional[str]:
        """The lightpath id holding this OT, or None."""
        return self._owner

    def allocate(self, owner: str) -> None:
        """Reserve the OT for a lightpath.

        Raises:
            TransponderUnavailableError: if the OT is already in use.
        """
        if self._owner is not None:
            raise TransponderUnavailableError(
                f"{self.ot_id} is already held by {self._owner!r}"
            )
        self._owner = owner

    def tune(self, channel: int) -> None:
        """Tune the laser to ``channel``.

        Raises:
            SignalError: if the OT has not been allocated first.
            ConfigurationError: for an off-grid channel.
        """
        if self._owner is None:
            raise SignalError(f"{self.ot_id} must be allocated before tuning")
        self._grid.validate(channel)
        self._channel = channel

    def release(self, owner: str) -> None:
        """Free the OT and detune the laser.

        Raises:
            TransponderUnavailableError: if ``owner`` does not hold the OT.
        """
        if self._owner != owner:
            raise TransponderUnavailableError(
                f"{self.ot_id} is held by {self._owner!r}, not {owner!r}"
            )
        self._owner = None
        self._channel = None

    def __repr__(self) -> str:
        state = f"owner={self._owner!r}" if self._owner else "idle"
        return (
            f"Transponder({self.ot_id}, {format_rate(self.line_rate_bps)}, {state})"
        )


class TransponderPool:
    """The OTs installed at one node, grouped by line rate.

    The pool is the unit of the carrier's resource planning problem
    (paper §4): too few OTs means blocked BoD requests, too many means
    stranded capital.
    """

    def __init__(self, node: str, grid: WavelengthGrid) -> None:
        self.node = node
        self._grid = grid
        self._transponders: Dict[str, Transponder] = {}
        self._counter = 0

    def install(self, line_rate_bps: float, count: int = 1) -> List[Transponder]:
        """Install ``count`` new OTs of the given rate; returns them."""
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        created = []
        for _ in range(count):
            ot_id = f"OT:{self.node}:{self._counter}"
            self._counter += 1
            ot = Transponder(ot_id, self.node, line_rate_bps, self._grid)
            self._transponders[ot_id] = ot
            created.append(ot)
        return created

    @property
    def transponders(self) -> List[Transponder]:
        """All installed OTs."""
        return list(self._transponders.values())

    def get(self, ot_id: str) -> Transponder:
        """Look up an OT by id.

        Raises:
            TransponderUnavailableError: for an unknown id.
        """
        try:
            return self._transponders[ot_id]
        except KeyError:
            raise TransponderUnavailableError(
                f"no transponder {ot_id!r} at {self.node}"
            ) from None

    def _idle(self, line_rate_bps: Optional[float]) -> Iterator[Transponder]:
        return (
            ot
            for ot in self._transponders.values()
            if not ot.in_use
            and (line_rate_bps is None or ot.line_rate_bps == line_rate_bps)
        )

    def free(self, line_rate_bps: Optional[float] = None) -> List[Transponder]:
        """Idle OTs, optionally filtered to one line rate."""
        return list(self._idle(line_rate_bps))

    def allocate(self, line_rate_bps: float, owner: str) -> Transponder:
        """Allocate the first idle OT at the given rate.

        Raises:
            TransponderUnavailableError: if none is free.
        """
        chosen = next(self._idle(line_rate_bps), None)
        if chosen is None:
            raise TransponderUnavailableError(
                f"no free {line_rate_bps / GBPS:g}G transponder at {self.node}"
            )
        chosen.allocate(owner)
        return chosen

    def utilization(self, line_rate_bps: Optional[float] = None) -> float:
        """Fraction of matching OTs in use (0 if none installed)."""
        matching = [
            ot
            for ot in self._transponders.values()
            if line_rate_bps is None or ot.line_rate_bps == line_rate_bps
        ]
        if not matching:
            return 0.0
        return sum(ot.in_use for ot in matching) / len(matching)
