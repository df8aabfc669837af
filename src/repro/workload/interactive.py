"""Interactive inter-DC traffic: diurnal bandwidth-demand curves.

Interactive traffic does not tear connections up and down per job; it is
a continuous bandwidth requirement that swings with the day.  For the
provisioning-economics experiment we only need the demand *curve* —
capacity planning compares a statically peak-provisioned pipe against a
BoD pipe resized to track the curve.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.units import GBPS, HOUR
from repro.workload.arrivals import DiurnalProfile


class InteractiveDemand:
    """A diurnal bandwidth demand between one premises pair.

    Args:
        pair: The (src, dst) premises names.
        base_gbps: Mean demand in Gbps.
        amplitude: Diurnal swing fraction (see :class:`DiurnalProfile`).
        peak_hour: Hour of peak demand.
    """

    def __init__(
        self,
        pair: Tuple[str, str],
        base_gbps: float = 4.0,
        amplitude: float = 0.6,
        peak_hour: float = 20.0,
    ) -> None:
        self.pair = pair
        self._profile = DiurnalProfile(
            base_gbps * GBPS, amplitude=amplitude, peak_hour=peak_hour
        )

    def demand_bps(self, t: float) -> float:
        """Instantaneous demand at simulation time ``t``."""
        return self._profile.rate(t)

    def peak_bps(self) -> float:
        """The daily peak demand."""
        return self._profile.peak()

    def hourly_series(self, hours: int = 24) -> List[float]:
        """Demand sampled at each hour boundary, for ``hours`` hours.

        Raises:
            ConfigurationError: for a non-positive horizon.
        """
        if hours < 1:
            raise ConfigurationError(f"hours must be >= 1, got {hours}")
        return [self.demand_bps(h * HOUR) for h in range(hours)]

    def capacity_hours_tracking(
        self, hours: int = 24, granularity_bps: float = 1 * GBPS
    ) -> float:
        """Capacity-hours when BoD resizes hourly to the demand ceiling.

        Capacity is quantized upward to ``granularity_bps`` (you lease
        whole 1G circuits), sampled at hour start.
        """
        if granularity_bps <= 0:
            raise ConfigurationError("granularity must be positive")
        total = 0.0
        for demand in self.hourly_series(hours):
            steps = int(-(-demand // granularity_bps))  # ceil division
            total += steps * granularity_bps
        return total
