"""Reclaiming idle OTN lines: intelligent re-use of the resource pool.

"The carrier also benefits from the intelligent re-use of the pool of
resources across multiple customers" (paper §1).  OTN lines are stood up
on demand, each consuming a wavelength plus two transponders.  When the
last circuit leaves a line, that capital sits idle.  The reclaimer
watches for lines that have been empty longer than a holding time and
tears their underlying wavelength down, returning the OTs and the
channel to the shared pool — while the holding time avoids thrashing
when demand is merely bursty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.controller import GriphonController
from repro.errors import ConfigurationError
from repro.sim.process import Process


@dataclass
class ReclamationReport:
    """Outcome of one reclamation sweep."""

    scanned: int = 0
    reclaimed: List[str] = field(default_factory=list)
    kept_busy: int = 0
    kept_young: int = 0


class OtnLineReclaimer:
    """Tears down OTN lines that have been idle past a holding time."""

    def __init__(
        self,
        controller: GriphonController,
        holding_time_s: float = 3600.0,
    ) -> None:
        if holding_time_s < 0:
            raise ConfigurationError(
                f"holding time must be >= 0, got {holding_time_s}"
            )
        self._controller = controller
        self._holding_time_s = holding_time_s
        # line id -> when it was last seen carrying zero circuits.
        self._idle_since: Dict[str, float] = {}

    def sweep(self) -> ReclamationReport:
        """Scan all lines; reclaim those idle past the holding time.

        Reclamation releases the line's tributary capacity records,
        unregisters it from the switches' viewpoint (by deleting it from
        the inventory), and tears down the underlying lightpath through
        the normal (timed) teardown workflow.
        """
        controller = self._controller
        now = controller.sim.now
        report = ReclamationReport()
        for line_id, line in list(controller.inventory.otn_lines.items()):
            report.scanned += 1
            # Busy means carrying circuits *or* reserved as shared-mesh
            # backup capacity — reclaiming a backup line would silently
            # strip protection from live circuits.
            reserved = controller.protection.reserved_slots(line_id)
            if line.owners() or reserved > 0:
                report.kept_busy += 1
                self._idle_since.pop(line_id, None)
                continue
            first_seen = self._idle_since.setdefault(line_id, now)
            if now - first_seen < self._holding_time_s:
                report.kept_young += 1
                continue
            self._reclaim(line_id)
            report.reclaimed.append(line_id)
        return report

    # -- internals ------------------------------------------------------------

    def _reclaim(self, line_id: str) -> None:
        controller = self._controller
        inventory = controller.inventory
        line = inventory.otn_lines.pop(line_id)
        self._idle_since.pop(line_id, None)
        # Detach from both switches, so grooming stops offering it.
        for node in (line.a, line.b):
            inventory.otn_switches[node].detach_line(line_id)
        # Remove from the shared-mesh manager's capacity view (a swept
        # line carries no reservation, or it would have been kept busy).
        controller.protection.remove_line(line_id)
        # Tear the underlying wavelength down (timed workflow).
        lightpath_id = controller.detach_otn_line(line_id)
        if lightpath_id is not None:
            lightpath = inventory.lightpaths.get(lightpath_id)
            if lightpath is not None:
                Process(
                    controller.sim,
                    controller.provisioner.teardown_workflow(
                        lightpath, include_fxc=False
                    ),
                    label=f"reclaim:{line_id}",
                )

    def schedule_periodic(self, interval_s: float, stop_at: float) -> None:
        """Run sweeps every ``interval_s`` seconds until ``stop_at``.

        The stop time is mandatory so the periodic event chain cannot
        keep an unbounded ``sim.run()`` alive forever.

        Raises:
            ConfigurationError: for a non-positive interval or a stop
                time in the past.
        """
        if interval_s <= 0:
            raise ConfigurationError(
                f"interval must be positive, got {interval_s}"
            )
        sim = self._controller.sim
        if stop_at <= sim.now:
            raise ConfigurationError(
                f"stop_at={stop_at} is not after now={sim.now}"
            )

        def tick() -> None:
            self.sweep()
            if sim.now + interval_s <= stop_at:
                sim.schedule(interval_s, tick, label="reclaim-sweep")

        sim.schedule(interval_s, tick, label="reclaim-sweep")
