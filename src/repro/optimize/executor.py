"""Executing a migration plan without ever dropping traffic.

The executor is a callback-driven sequential state machine riding the
simulator: each move is a bridge-and-roll (new path lit before old path
released), so a connection is never dark — the worst a move costs is
the ~50 ms roll hit.  Running moves one at a time in plan order
trivially honors the plan's wavelength-availability dependencies: a
move that lights slots an earlier move releases always runs after it.

Safety layers, in order of engagement:

* **Stale check** — before each move the connection's live assignment
  must still equal ``move.old_*``; anything else (re-groomed, repaired,
  torn down since the snapshot) skips the move as ``stale``.
* **Migration lock** — every roll is a ``controller.migrations.move``
  under the ``"optimize"`` holder tag, so no other migration driver
  (maintenance, re-grooming, SLO remediation) can race the executor on
  the same connection; a refusal's own message (the other holder, a
  blocked plan) becomes the move's ``detail``.
* **Audit** — after every completed move the invariant auditor sweeps
  the whole network; violations stop the run (and trigger rollback when
  enabled), because continuing to migrate on top of corrupted state
  only spreads the corruption.
* **Saga rollback** — a failed move (synchronous planning error or an
  aborted roll) unwinds every *completed* move in reverse order, each
  unwind itself a bridge-and-roll back to ``move.old_*``.  Reverse
  order guarantees slot availability: undoing move *k* frees exactly
  the slots move *k-1*'s undo may need.  A roll abort keeps the old
  path carrying traffic, so even mid-rollback nothing drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.connection import ConnectionState
from repro.core.migration import Move
from repro.errors import GriphonError
from repro.faults.audit import audit_network
from repro.optimize.planner import MigrationMove, MigrationPlan


@dataclass
class MoveResult:
    """Outcome of one move (or its rollback).

    ``outcome`` is one of ``completed``, ``stale``, ``failed``,
    ``rolled-back``, ``rollback-failed``, ``skipped``.
    """

    move: MigrationMove
    outcome: str
    detail: str = ""


@dataclass
class MigrationReport:
    """What happened when a plan executed."""

    results: List[MoveResult] = field(default_factory=list)
    audit_failures: List[str] = field(default_factory=list)
    dropped_connections: List[str] = field(default_factory=list)
    rollback_triggered: bool = False

    def _count(self, outcome: str) -> int:
        return sum(1 for result in self.results if result.outcome == outcome)

    @property
    def completed(self) -> int:
        """Moves that landed forward."""
        return self._count("completed")

    @property
    def stale(self) -> int:
        """Moves skipped because the live assignment had changed."""
        return self._count("stale")

    @property
    def failed(self) -> int:
        """Forward moves refused or aborted."""
        return self._count("failed")

    @property
    def rolled_back(self) -> int:
        """Completed moves the saga undid."""
        return self._count("rolled-back")

    @property
    def clean(self) -> bool:
        """True when every move landed with no audits tripped."""
        return (
            not self.rollback_triggered
            and not self.audit_failures
            and not self.dropped_connections
            and self.failed == 0
        )

    def to_dict(self) -> Dict:
        """JSON-serializable summary."""
        return {
            "completed": self.completed,
            "stale": self.stale,
            "failed": self.failed,
            "rolled_back": self.rolled_back,
            "rollback_triggered": self.rollback_triggered,
            "audit_failures": list(self.audit_failures),
            "dropped_connections": list(self.dropped_connections),
            "outcomes": [
                {
                    "connection_id": r.move.connection_id,
                    "outcome": r.outcome,
                    "detail": r.detail,
                }
                for r in self.results
            ],
        }


class MigrationExecutor:
    """Runs a :class:`MigrationPlan` move by move on the live network."""

    def __init__(self, controller, rollback_on_failure: bool = True) -> None:
        self._controller = controller
        self._rollback_on_failure = rollback_on_failure

    # -- public API --------------------------------------------------------

    def execute(
        self,
        plan: MigrationPlan,
        on_done: Optional[Callable[[MigrationReport], None]] = None,
    ) -> MigrationReport:
        """Start executing ``plan``; returns the (live) report.

        Moves run as simulator processes — call ``sim.run()`` afterwards
        to drain them.  The report object returned is filled in as moves
        settle; ``on_done`` fires once when the run (including any
        rollback) finishes.
        """
        run = _ExecutionRun(self, plan, on_done)
        run.step()
        return run.report


class _ExecutionRun:
    """State of one in-flight plan execution (forward + rollback)."""

    def __init__(
        self,
        executor: MigrationExecutor,
        plan: MigrationPlan,
        on_done: Optional[Callable[[MigrationReport], None]],
    ) -> None:
        self.controller = executor._controller
        self.rollback_on_failure = executor._rollback_on_failure
        self.plan = plan
        self.report = MigrationReport()
        self.on_done = on_done
        self.cursor = 0
        #: Moves that completed forward, for reverse-order unwinding.
        self.completed_moves: List[MigrationMove] = []
        self.mode = "forward"
        self.unwind_cursor = 0
        self.finished = False

    # -- shared helpers ----------------------------------------------------

    def _current_assignment(self, connection_id: str):
        """(path, channels) of the connection's live lightpath, or None."""
        controller = self.controller
        connection = controller.connections.get(connection_id)
        if connection is None or connection.state is not ConnectionState.UP:
            return None
        if len(connection.lightpath_ids) != 1:
            return None
        lightpath = controller.inventory.lightpaths.get(
            connection.lightpath_ids[0]
        )
        if lightpath is None:
            return None
        return tuple(lightpath.path), tuple(lightpath.channels)

    def _roll(self, move: MigrationMove, path, channels) -> str:
        """Start one move onto ``(path, channels)``; returns why it was
        refused, or ``""`` once it runs (:meth:`_settled` continues)."""
        controller = self.controller
        try:
            explicit = controller.rwa.plan_explicit(
                list(path), list(channels), move.rate_bps
            )
            controller.migrations.move(
                move.connection_id,
                "optimize",
                plan=explicit,
                on_settled=lambda roll: self._settled(move, roll),
            )
        except GriphonError as exc:
            return str(exc)
        return ""

    def _record(
        self, move: MigrationMove, outcome: str, detail: str = ""
    ) -> None:
        self.report.results.append(MoveResult(move, outcome, detail))

    def _audit(self) -> bool:
        """Run the invariant auditor; record violations.  True if clean."""
        audit = audit_network(self.controller)
        if not audit.ok:
            self.report.audit_failures.extend(
                str(v) for v in audit.violations
            )
            return False
        return True

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        report = self.report
        # Touched connections must all still be carrying traffic.
        touched = {m.connection_id for m in self.plan.moves}
        for conn_id in sorted(touched):
            connection = self.controller.connections.get(conn_id)
            if connection is not None and connection.state not in (
                ConnectionState.UP,
                ConnectionState.RELEASED,
            ):
                report.dropped_connections.append(conn_id)
        metrics = self.controller.metrics
        metrics.inc("optimize.moves.completed", report.completed)
        metrics.inc("optimize.moves.stale", report.stale)
        metrics.inc("optimize.moves.failed", report.failed)
        metrics.inc("optimize.moves.rolled_back", report.rolled_back)
        if report.rollback_triggered:
            metrics.inc("optimize.rollbacks")
        if self.on_done is not None:
            self.on_done(report)

    # -- forward execution -------------------------------------------------

    def step(self) -> None:
        """Run the next forward move (or finish / start rollback)."""
        plan_moves = self.plan.moves
        while self.cursor < len(plan_moves):
            move = plan_moves[self.cursor]
            self.cursor += 1
            live = self._current_assignment(move.connection_id)
            if live != (move.old_path, move.old_channels):
                self._record(move, "stale", f"live assignment {live}")
                continue
            refused = self._roll(move, move.new_path, move.new_channels)
            if not refused:
                return
            self._record(move, "failed", refused)
            self._begin_rollback()
            return
        self._finish()

    def _settled(self, planned: MigrationMove, roll: Move) -> None:
        """A started roll settled: record it, then take the next step."""
        completed = roll.outcome == "completed"
        detail = "" if completed else f"roll aborted: {roll.reason}"
        if self.mode == "rollback":
            self._record(
                planned, "rolled-back" if completed else "rollback-failed",
                detail,
            )
            self.unwind_step()
            return
        self._record(planned, "completed" if completed else "failed", detail)
        if completed:
            self.completed_moves.append(planned)
            if self._audit():
                self.step()
                return
        self._begin_rollback()

    # -- rollback ----------------------------------------------------------

    def _begin_rollback(self) -> None:
        if not self.rollback_on_failure or not self.completed_moves:
            self._finish()
            return
        self.report.rollback_triggered = True
        self.mode = "rollback"
        self.unwind_cursor = len(self.completed_moves) - 1
        self.unwind_step()

    def unwind_step(self) -> None:
        """Undo the next completed move (reverse plan order)."""
        while self.unwind_cursor >= 0:
            move = self.completed_moves[self.unwind_cursor]
            self.unwind_cursor -= 1
            live = self._current_assignment(move.connection_id)
            if live != (move.new_path, move.new_channels):
                self._record(
                    move, "rollback-failed", f"live assignment {live}"
                )
                continue
            refused = self._roll(move, move.old_path, move.old_channels)
            if not refused:
                return
            self._record(move, "rollback-failed", refused)
        self._finish()
