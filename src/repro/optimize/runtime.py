"""The re-optimization control loop: snapshot -> plan -> execute.

One :class:`Reoptimizer` per network ties the layers together and adds
the operational glue: SLO-aware link penalties (the PR 9 breach stream
feeding the planner's objective) and metrics.  Cycles run on demand
(:meth:`Reoptimizer.run_cycle`).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.optimize.executor import MigrationExecutor, MigrationReport
from repro.optimize.planner import (
    MigrationPlan,
    plan_migrations,
    slo_link_penalties,
)
from repro.optimize.snapshot import NetworkSnapshot


class Reoptimizer:
    """Global re-optimization driver for one controller.

    Args:
        controller: The network's :class:`GriphonController`.
        slo_engine: Optional SLO remediation engine; when present, links
            it is actively remediating around (and gray-degraded links)
            are cost-penalized so the planner migrates traffic away.
        k_paths / max_passes / min_gain / channel_weight / max_moves:
            Planner knobs, see :func:`plan_migrations`.
        holder: Migration-lock holder tag for executed moves.
        audit_each_move: Run the invariant auditor after every move.
    """

    def __init__(
        self,
        controller,
        slo_engine=None,
        k_paths: int = 4,
        max_passes: int = 4,
        min_gain: float = 1e-6,
        channel_weight: float = 0.005,
        max_moves: Optional[int] = None,
        holder: str = "optimize",
        audit_each_move: bool = True,
    ) -> None:
        self._controller = controller
        self._slo_engine = slo_engine
        self._k_paths = k_paths
        self._max_passes = max_passes
        self._min_gain = min_gain
        self._channel_weight = channel_weight
        self._max_moves = max_moves
        self._executor = MigrationExecutor(
            controller, holder=holder, audit_each_move=audit_each_move
        )

    # -- one-shot layers ---------------------------------------------------

    def snapshot(self) -> NetworkSnapshot:
        """Freeze the network now, with SLO penalties folded in."""
        penalties = slo_link_penalties(
            self._controller, engine=self._slo_engine
        )
        return NetworkSnapshot.from_controller(
            self._controller, link_penalties=penalties
        )

    def plan(
        self, snapshot: Optional[NetworkSnapshot] = None
    ) -> MigrationPlan:
        """Plan migrations for ``snapshot`` (taken now when omitted)."""
        if snapshot is None:
            snapshot = self.snapshot()
        return plan_migrations(
            snapshot,
            k_paths=self._k_paths,
            max_passes=self._max_passes,
            min_gain=self._min_gain,
            channel_weight=self._channel_weight,
            max_moves=self._max_moves,
        )

    def execute(
        self,
        plan: MigrationPlan,
        on_done: Optional[Callable[[MigrationReport], None]] = None,
    ) -> MigrationReport:
        """Execute a plan; see :meth:`MigrationExecutor.execute`."""
        return self._executor.execute(plan, on_done=on_done)

    # -- the cycle ---------------------------------------------------------

    def run_cycle(
        self,
        on_done: Optional[
            Callable[[MigrationPlan, MigrationReport], None]
        ] = None,
    ) -> MigrationPlan:
        """Snapshot, plan, and start executing one full cycle.

        Returns the plan immediately; execution drains on the simulator.
        Cycle results land in the metrics registry as counters and
        gauges (``optimize.wavelengths.before/after/reclaimed``).
        """
        metrics = getattr(self._controller, "metrics", None)
        plan = self.plan()
        if metrics is not None:
            metrics.inc("optimize.cycles")
            metrics.inc("optimize.moves.planned", len(plan.moves))
            metrics.set_gauge(
                "optimize.wavelengths.before", plan.wavelengths_before
            )
            metrics.set_gauge(
                "optimize.wavelengths.after", plan.wavelengths_after
            )
            metrics.set_gauge(
                "optimize.wavelengths.reclaimed",
                plan.wavelengths_before - plan.wavelengths_after,
            )

        def done(report: MigrationReport) -> None:
            if on_done is not None:
                on_done(plan, report)

        if plan.moves:
            self.execute(plan, on_done=done)
        elif on_done is not None:
            on_done(plan, MigrationReport())
        return plan
