"""Planned-maintenance orchestration.

"By using automated bridge-and-roll of private line connections,
GRIPhoN minimizes the impact during planned maintenance" (paper §1).
The scheduler models a maintenance window on one fiber link.  With
bridge-and-roll enabled it migrates every affected wavelength connection
to a disjoint path *before* the window opens (each migration costs only
the ~50 ms roll hit), under the ``"maintenance"`` migration-lock holder;
a move that aborts before the window opens is retried once.  Without
it, connections ride into the cut and eat a full restoration — or the
whole window, if restoration is off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.controller import GriphonController
from repro.core.migration import Move
from repro.errors import ConfigurationError, GriphonError


class MaintenanceRecord:
    """Outcome of one maintenance window.

    Attributes:
        link: The link that was worked on.
        started_at / ended_at: Window boundaries (simulation time).
        migrated: Connection ids whose bridge-and-roll off the link
            settled completed.
        migration_failures: Connection id -> reason for ids that could
            not be migrated (no disjoint path, no resources, a move that
            aborted twice or after the window opened, ...).
        moves: Every move the window started, in start order; an
            aborted move retried before the window opens appears twice.
    """

    __slots__ = (
        "link", "started_at", "ended_at", "migrated", "migration_failures",
        "moves", "completed",
    )

    def __init__(
        self,
        link: Tuple[str, str],
        started_at: float,
        ended_at: float,
        migrated: Optional[List[str]] = None,
        migration_failures: Optional[Dict[str, str]] = None,
        moves: Optional[List[Move]] = None,
        completed: bool = False,
    ) -> None:
        self.link = link
        self.started_at = started_at
        self.ended_at = ended_at
        self.migrated = [] if migrated is None else migrated
        self.migration_failures = (
            {} if migration_failures is None else migration_failures
        )
        self.moves = [] if moves is None else moves
        self.completed = completed


class MaintenanceScheduler:
    """Schedules maintenance windows on the controller's simulator."""

    #: How long before the window the migrations start.  Bridging takes
    #: about a minute per connection, so give it comfortable margin.
    DEFAULT_LEAD_TIME_S = 600.0

    def __init__(self, controller: GriphonController) -> None:
        self._controller = controller
        self.records: List[MaintenanceRecord] = []

    def schedule(
        self,
        a: str,
        b: str,
        start_in: float,
        duration: float,
        use_bridge_and_roll: bool = True,
        lead_time: float = DEFAULT_LEAD_TIME_S,
    ) -> MaintenanceRecord:
        """Schedule a maintenance window on link ``a``-``b``.

        Args:
            start_in: Seconds from now until the window opens.
            duration: Window length in seconds.
            use_bridge_and_roll: Migrate affected connections beforehand.
            lead_time: How long before the window migrations begin; must
                not exceed ``start_in``.

        Returns:
            The (initially empty) record, filled in as events fire.
        """
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        if start_in < 0:
            raise ConfigurationError(f"start_in must be >= 0, got {start_in}")
        sim = self._controller.sim
        record = MaintenanceRecord(
            link=(a, b) if a <= b else (b, a),
            started_at=sim.now + start_in,
            ended_at=sim.now + start_in + duration,
        )
        self.records.append(record)
        if use_bridge_and_roll:
            migrate_at = max(0.0, start_in - lead_time)
            sim.schedule(
                migrate_at,
                self._migrate_affected,
                record,
                label=f"maintenance-migrate:{a}={b}",
            )
        sim.schedule(
            start_in, self._open_window, record, label=f"maintenance-open:{a}={b}"
        )
        sim.schedule(
            start_in + duration,
            self._close_window,
            record,
            label=f"maintenance-close:{a}={b}",
        )
        return record

    def window_covering(
        self,
        a: str,
        b: str,
        now: float,
        horizon_s: Optional[float] = None,
    ) -> Optional[MaintenanceRecord]:
        """A pending window on link ``a``-``b``, if the calendar has one.

        The SLO engine's defer step calls this: a degraded link with a
        technician already scheduled does not need a reroute — the
        maintenance migration will move the traffic anyway.

        Args:
            now: Current sim time.
            horizon_s: When given, only windows opening within this many
                seconds qualify (open windows always do).

        Returns:
            The earliest matching record, or None.
        """
        key = (a, b) if a <= b else (b, a)
        best: Optional[MaintenanceRecord] = None
        for record in self.records:
            if record.completed or record.link != key:
                continue
            if record.ended_at <= now:
                continue
            if horizon_s is not None and record.started_at > now + horizon_s:
                continue
            if best is None or record.started_at < best.started_at:
                best = record
        return best

    # -- internals ------------------------------------------------------------

    def _migrate_affected(self, record: MaintenanceRecord) -> None:
        controller = self._controller
        for lightpath in controller.inventory.lightpaths_using_link(*record.link):
            conn_id = controller.connection_of(lightpath.lightpath_id)
            if conn_id is not None:
                self._migrate(record, conn_id, retry=True)

    def _migrate(
        self, record: MaintenanceRecord, conn_id: str, retry: bool
    ) -> None:
        """Move one connection off the link; an abort before the window
        opens is retried once, then recorded as a failure."""

        def settled(move: Move) -> None:
            if move.outcome == "completed":
                record.migrated.append(conn_id)
            elif retry and self._controller.sim.now < record.started_at:
                self._migrate(record, conn_id, retry=False)
            else:
                record.migration_failures[conn_id] = move.reason

        try:
            record.moves.append(self._controller.migrations.move(
                conn_id, "maintenance", exclude=[record.link],
                on_settled=settled,
            ))
        except GriphonError as exc:
            record.migration_failures[conn_id] = str(exc)

    def _open_window(self, record: MaintenanceRecord) -> None:
        a, b = record.link
        self._controller.cut_link(a, b)

    def _close_window(self, record: MaintenanceRecord) -> None:
        a, b = record.link
        self._controller.repair_link(a, b)
        record.completed = True
