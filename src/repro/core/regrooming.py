"""Network re-grooming: migrating connections to better paths.

"As the GRIPhoN network grows, additional routes between nodes will be
added.  This will make paths that were previously unavailable more
appropriate for some connections than the originally established paths.
... The process of re-provisioning connections to achieve an improved
network configuration is called re-grooming.  In order to perform
re-grooming with minimal impact to the CSP, the GRIPhoN bridge-and-roll
can be used to migrate the wavelength connections."  (paper §4)

The engine scans live wavelength connections, scores each against the
best currently-available route (by fiber kilometers, a latency proxy),
and migrates the worst offenders via bridge-and-roll — each migration
costing only the ~50 ms roll hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.connection import ConnectionState
from repro.core.controller import GriphonController
from repro.core.migration import Move
from repro.errors import ConfigurationError, GriphonError


@dataclass
class RegroomCandidate:
    """One connection that would benefit from re-grooming.

    Attributes:
        connection_id: The connection to migrate.
        current_km: Fiber length of its current route.
        best_km: Fiber length of the best available disjoint route.
    """

    connection_id: str
    current_km: float
    best_km: float

    @property
    def improvement(self) -> float:
        """Fractional km saving if migrated, in [0, 1)."""
        if self.current_km <= 0:
            return 0.0
        return max(0.0, (self.current_km - self.best_km) / self.current_km)


@dataclass
class RegroomReport:
    """Outcome of one re-grooming pass."""

    scanned: int = 0
    candidates: List[RegroomCandidate] = field(default_factory=list)
    migrated: List[str] = field(default_factory=list)
    failures: Dict[str, str] = field(default_factory=dict)


class RegroomingEngine:
    """Scans for and executes beneficial connection migrations."""

    def __init__(
        self,
        controller: GriphonController,
        improvement_threshold: float = 0.10,
    ) -> None:
        if not 0 <= improvement_threshold < 1:
            raise ConfigurationError(
                f"threshold must be in [0, 1), got {improvement_threshold}"
            )
        self._controller = controller
        self._threshold = improvement_threshold

    # -- scanning --------------------------------------------------------------

    def scan(self) -> List[RegroomCandidate]:
        """Find UP wavelength connections with a materially shorter
        disjoint route available right now.

        The candidate route must satisfy the bridge-and-roll constraint
        (resource-disjoint from the current path), since that is how the
        migration will be executed.
        """
        controller = self._controller
        graph = controller.inventory.graph
        weight = lambda link: link.length_km  # noqa: E731
        candidates = []
        for connection in controller.connections.values():
            if connection.state is not ConnectionState.UP:
                continue
            if len(connection.lightpath_ids) != 1 or connection.circuit_ids:
                continue
            if controller.migrations.holder(connection.connection_id):
                continue  # mid-move: its route is about to change
            lightpath = controller.inventory.lightpaths.get(
                connection.lightpath_ids[0]
            )
            if lightpath is None:
                continue
            current_km = graph.path_length_km(lightpath.path)
            try:
                plan = controller.rwa.plan(
                    lightpath.source,
                    lightpath.destination,
                    lightpath.rate_bps,
                    avoid_srlgs_of=lightpath.path,
                )
            except GriphonError:
                continue  # no disjoint alternative exists
            if controller.inventory.plant.path_penalty_db(plan.path) > 0.0:
                # Never regroom *onto* a gray-degraded route; the SLO
                # engine would immediately have to move it again.
                continue
            best_km = graph.path_length_km(plan.path)
            candidate = RegroomCandidate(
                connection.connection_id, current_km, best_km
            )
            if candidate.improvement > self._threshold:
                candidates.append(candidate)
        candidates.sort(key=lambda c: c.improvement, reverse=True)
        return candidates

    # -- execution -------------------------------------------------------------

    def run_pass(
        self,
        max_migrations: Optional[int] = None,
        on_done: Optional[Callable[[RegroomReport], None]] = None,
    ) -> RegroomReport:
        """Scan and migrate up to ``max_migrations`` connections.

        Migrations run as bridge-and-roll processes on the simulator;
        call ``sim.run()`` afterwards to let them complete.  The report's
        ``migrated`` list is filled in as each migration lands.

        Every migration holds the connection's migration lock under the
        ``"regrooming"`` holder tag, so no other migration driver can
        roll the same connection concurrently; a connection locked
        between :meth:`scan` and the roll is recorded as a failure
        instead of racing.
        """
        report = RegroomReport()
        report.scanned = sum(
            1
            for c in self._controller.connections.values()
            if c.state is ConnectionState.UP
        )
        report.candidates = self.scan()
        to_migrate = report.candidates
        if max_migrations is not None:
            to_migrate = to_migrate[:max_migrations]
        moves: List[Move] = []

        def settled(move: Move) -> None:
            if move.outcome == "completed":
                report.migrated.append(move.connection_id)
            else:
                report.failures[move.connection_id] = move.reason
            if on_done is not None and all(m.settled for m in moves):
                on_done(report)

        for candidate in to_migrate:
            try:
                moves.append(self._controller.migrations.move(
                    candidate.connection_id, "regrooming", on_settled=settled
                ))
            except GriphonError as exc:
                report.failures[candidate.connection_id] = str(exc)
        # A move settles in a later event, never inside move() itself.
        if not moves and on_done is not None:
            on_done(report)
        return report
