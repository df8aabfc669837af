"""A NetStitcher-style store-and-forward bulk scheduler.

NetStitcher (Laoutaris et al., SIGCOMM 2011) moves bulk data over the
*leftover* capacity of existing links, buffering at intermediate data
centers so each hop progresses independently whenever it has spare
bandwidth.  It needs no new capacity — the trade-off against BoD is
completion time: leftover bandwidth is scarce exactly when links are
busy.  This model times one transfer over a hop's piecewise-constant
hourly leftover profile.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import ConfigurationError
from repro.units import HOUR


class StoreForwardScheduler:
    """Completion-time computation for store-and-forward bulk transfers.

    Args:
        leftover_profiles: hop key -> hourly leftover bandwidth (bps),
            repeating daily.  Hop keys are arbitrary labels.
    """

    def __init__(self, leftover_profiles: Dict[str, Sequence[float]]) -> None:
        if not leftover_profiles:
            raise ConfigurationError("need at least one hop profile")
        for hop, profile in leftover_profiles.items():
            if not profile:
                raise ConfigurationError(f"hop {hop!r} has an empty profile")
            if any(b < 0 for b in profile):
                raise ConfigurationError(f"hop {hop!r} has negative bandwidth")
        self._profiles = {
            hop: list(profile) for hop, profile in leftover_profiles.items()
        }

    def hop_completion_time(
        self, hop: str, volume_bits: float, start_s: float = 0.0
    ) -> float:
        """Seconds (from ``start_s``) for one hop to move ``volume_bits``.

        Walks the hop's hourly leftover profile, draining the volume.

        Raises:
            ConfigurationError: for an unknown hop or negative volume.
            ValueError: if the profile is all-zero (never completes).
        """
        if volume_bits < 0:
            raise ConfigurationError("volume must be >= 0")
        profile = self._profiles.get(hop)
        if profile is None:
            raise ConfigurationError(f"unknown hop {hop!r}")
        if volume_bits == 0:
            return 0.0
        if not any(profile):
            raise ValueError(f"hop {hop!r} has no leftover bandwidth at all")
        remaining = volume_bits
        elapsed = 0.0
        hour_index = int(start_s // HOUR)
        # First, the partial hour we start in.
        offset = start_s - hour_index * HOUR
        while remaining > 0:
            bandwidth = profile[hour_index % len(profile)]
            available_s = HOUR - offset
            capacity = bandwidth * available_s
            if capacity >= remaining and bandwidth > 0:
                elapsed += remaining / bandwidth
                return elapsed
            remaining -= capacity
            elapsed += available_s
            hour_index += 1
            offset = 0.0
        return elapsed
