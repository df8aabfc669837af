"""Random fiber-cut injection: the network's weather.

Long-haul fiber gets cut — backhoes, squirrels, ship anchors — at a
roughly Poisson rate per route-kilometer, and physical repair takes
hours.  :class:`FiberCutInjector` drives that process against a
controller (Poisson inter-cut gaps, exponential repairs with a floor)
so availability studies can measure how much restoration buys over a
long horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.controller import GriphonController
from repro.errors import ConfigurationError
from repro.sim.randomness import RandomStreams
from repro.units import HOUR

#: Floor on a physical repair: crews need travel time.
MIN_REPAIR_S = 1 * HOUR


@dataclass
class CutRecord:
    """One injected fiber cut."""

    link: Tuple[str, str]
    cut_at: float
    repaired_at: Optional[float] = None

    @property
    def repair_duration(self) -> Optional[float]:
        """Hours on the ground fixing fiber, or None while open."""
        if self.repaired_at is None:
            return None
        return self.repaired_at - self.cut_at


def _core_link_keys(controller: GriphonController) -> List[Tuple[str, str]]:
    """Core (ROADM-to-ROADM) link keys — access tails don't get cut."""
    return [
        link.key
        for link in controller.inventory.graph.links
        if not (
            link.a.startswith("PREMISES")
            or link.b.startswith("PREMISES")
            or link.a.startswith("DC-")
            or link.b.startswith("DC-")
        )
    ]


class FiberCutInjector:
    """Injects Poisson fiber cuts with hours-long physical repairs.

    Args:
        controller: The controller whose plant gets cut (its failure
            handling runs automatically).
        streams: Random substreams.
        mean_time_between_cuts_s: Network-wide MTBF of cuts.
        mean_repair_s: Mean physical repair time (exponential, floored
            at one hour — crews need travel time).
        stop_at: No cuts injected after this simulation time.
        stream_name: Base name of the random substreams drawn from.
    """

    def __init__(
        self,
        controller: GriphonController,
        streams: RandomStreams,
        mean_time_between_cuts_s: float,
        mean_repair_s: float = 6 * HOUR,
        stop_at: Optional[float] = None,
        stream_name: str = "fiber-cuts",
    ) -> None:
        if mean_time_between_cuts_s <= 0 or mean_repair_s <= 0:
            raise ConfigurationError("MTBF and repair time must be positive")
        self._controller = controller
        self._streams = streams
        self._mtbf = mean_time_between_cuts_s
        self._mean_repair = mean_repair_s
        self._stop_at = stop_at
        self._stream_name = stream_name
        self.records: List[CutRecord] = []
        self._targets = _core_link_keys(controller)
        if not self._targets:
            raise ConfigurationError("topology has no core links to cut")
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self._streams.exponential(self._stream_name, self._mtbf)
        when = self._controller.sim.now + gap
        if self._stop_at is not None and when > self._stop_at:
            return
        self._controller.sim.schedule(gap, self._fire, label="fiber-cut")

    def _fire(self) -> None:
        sim = self._controller.sim
        failed = self._controller.inventory.plant.failed_links()
        healthy = [key for key in self._targets if key not in failed]
        if healthy:
            link = self._streams.choice(f"{self._stream_name}:link", healthy)
            record = CutRecord(link, cut_at=sim.now)
            self.records.append(record)
            self._controller.cut_link(*link)
            self._controller.metrics.inc("failure.injected.fiber_cut")
            repair_in = max(
                MIN_REPAIR_S,
                self._streams.exponential(
                    f"{self._stream_name}:repair", self._mean_repair
                ),
            )
            sim.schedule(
                repair_in,
                self._repair,
                record,
                label=f"fiber-repair:{link[0]}={link[1]}",
            )
        self._schedule_next()

    def _repair(self, record: CutRecord) -> None:
        record.repaired_at = self._controller.sim.now
        self._controller.repair_link(*record.link)
        self._controller.metrics.inc("failure.repaired.fiber_cut")

    @property
    def open_cuts(self) -> List[CutRecord]:
        """Cuts not yet repaired."""
        return [r for r in self.records if r.repaired_at is None]
