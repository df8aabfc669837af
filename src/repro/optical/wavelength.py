"""The ITU-T DWDM channel grid.

A modern DWDM system carries 40–100 wavelengths on the C band (the paper,
§2.1).  We model a fixed grid of channels, identified by integer index
throughout the library (on the ITU 50 GHz grid, channel ``i`` would sit
at ``193.1 THz + i * 50 GHz``; nothing here needs the frequency).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ConfigurationError

class WavelengthGrid:
    """A fixed DWDM channel grid of ``size`` channels.

    Channel indices run from 0 to ``size - 1``.  The default of 80
    channels matches a modern C-band system (paper: "anywhere from 40 to
    100 wavelengths").
    """

    def __init__(self, size: int = 80) -> None:
        if size < 1:
            raise ConfigurationError(f"grid size must be >= 1, got {size}")
        self._size = size

    @property
    def size(self) -> int:
        """Number of channels in the grid."""
        return self._size

    def channels(self) -> Iterator[int]:
        """Iterate all channel indices in ascending order."""
        return iter(range(self._size))

    def validate(self, channel: int) -> int:
        """Return ``channel`` if it is on the grid.

        Raises:
            ConfigurationError: for an off-grid index.
        """
        if not 0 <= channel < self._size:
            raise ConfigurationError(
                f"channel {channel} is off the grid [0, {self._size})"
            )
        return channel

    def __contains__(self, channel: object) -> bool:
        return isinstance(channel, int) and 0 <= channel < self._size

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"WavelengthGrid(size={self._size})"
