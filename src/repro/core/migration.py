"""Bridge-and-roll: the one path that moves a live connection.

The paper gives bridge-and-roll two jobs, hitless planned maintenance
and re-grooming (§1 item 3, §4).  Every driver — the maintenance
scheduler, the re-grooming engine, SLO remediation and the
re-optimizer's executor — moves a connection through
:meth:`Migrations.move`, one procedure: pre-check the connection and
take its migration lock under the driver's holder tag; make before
break (claim and light a bridge while the old path carries traffic,
roll across with a ~50 ms hit, tear the old path down); settle the
:class:`Move` record exactly once, release the lock, then call back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.connection import ConnectionState
from repro.errors import GriphonError, MigrationLockedError, ResourceError
from repro.optical.lightpath import LightpathState
from repro.sim.process import Process

#: The brief traffic hit while rolling onto a bridge path, in seconds.
ROLL_HIT_S = 0.050


@dataclass
class Move:
    """One bridge-and-roll of ``connection_id`` under ``holder``.

    ``outcome`` is None in flight, then ``"completed"`` or ``"aborted"``
    (with a ``reason``); a completed move names the ``new_path`` it
    rolled onto, and ``bridge_s`` / ``hit_s`` are how long the bridge
    took to come up and the roll's traffic hit.
    """

    connection_id: str
    holder: str
    outcome: Optional[str] = None
    reason: str = ""
    new_path: List[str] = field(default_factory=list)
    bridge_s: float = 0.0
    hit_s: float = 0.0

    @property
    def settled(self) -> bool:
        """True once the move completed or aborted."""
        return self.outcome is not None


class Migrations:
    """The per-connection migration locks and the one move entry point."""

    def __init__(self, controller) -> None:
        self._controller = controller
        #: connection_id -> the holder tag of its in-flight move.
        self._locks: Dict[str, str] = {}

    def holder(self, connection_id: str) -> Optional[str]:
        """The holder of the connection's in-flight move, or None."""
        return self._locks.get(connection_id)

    def move(
        self,
        connection_id: str,
        holder: str,
        plan=None,
        exclude=(),
        on_settled: Optional[Callable[[Move], None]] = None,
    ) -> Move:
        """Move a live wavelength connection onto a new path.

        The bridge is planned around the ``exclude`` link keys and
        resource-disjoint from the old path (paper §2.2), unless a
        ``plan`` (:class:`~repro.core.rwa.RwaPlan`) is given: that is
        claimed exactly as given, even on the same route when its
        channels are free (the re-optimizer's rewavelength moves).
        Returns the in-flight :class:`Move`; ``on_settled(move)`` fires
        once it settles, with the lock already free.

        Raises, with the lock never taken:
            MigrationLockedError: when the connection is already moving.
            ResourceError: unless the connection is UP with exactly one
                lightpath and no circuits.
            NoPathError / WavelengthBlockedError: if the bridge cannot
                be planned or claimed.
        """
        controller = self._controller
        connection = controller.connection(connection_id)
        if connection_id in self._locks:
            raise MigrationLockedError(
                f"connection {connection_id!r} is mid-migration (lock held "
                f"by {self._locks[connection_id]!r})"
            )
        if connection.state is not ConnectionState.UP:
            raise ResourceError(
                f"{connection_id} is {connection.state.value}; bridge-and-roll "
                f"needs an UP connection"
            )
        if len(connection.lightpath_ids) != 1 or connection.circuit_ids:
            raise ResourceError(
                "bridge-and-roll currently supports single-lightpath "
                "wavelength connections"
            )
        old = controller.inventory.lightpaths[connection.lightpath_ids[0]]
        span = controller.tracer.span(
            "bridge_and_roll", trace_id=connection.trace_id,
            connection=connection_id,
        )
        try:
            if plan is None:
                with span.child("roll.plan") as plan_span:
                    plan = controller.rwa.plan(
                        old.source, old.destination, old.rate_bps,
                        excluded_links=exclude, avoid_srlgs_of=old.path,
                        parent_span=plan_span,
                    )
            with span.child("roll.claim"):
                bridge = controller.provisioner.claim(plan)
        except GriphonError:
            span.set_tag("outcome", "blocked").finish()
            controller.metrics.inc("bridge_and_roll.blocked")
            raise
        self._locks[connection_id] = holder
        move = Move(connection_id, holder)
        Process(
            controller.sim,
            self._workflow(move, connection, old, bridge, span, on_settled),
            label=f"bridge-roll:{connection_id}",
        )
        return move

    def _roll_blocker(self, connection, old, bridge) -> str:
        """Why the roll cannot go ahead now (a teardown, a failure and
        the restoration that moved the connection off ``old``, a cut or
        rolled-back bridge); empty when it can."""
        if connection.state is not ConnectionState.UP:
            return f"connection is {connection.state.value}"
        if (
            old.lightpath_id not in self._controller.inventory.lightpaths
            or old.lightpath_id not in connection.lightpath_ids
        ):
            return "connection left its old path"
        if bridge.state is not LightpathState.UP:
            return f"bridge is {bridge.state.value}"
        return ""

    def _workflow(self, move, connection, old, bridge, span, on_settled):
        controller = self._controller
        sim = controller.sim
        provisioner = controller.provisioner
        bridge_started = sim.now
        # Bridge: bring the new path up while the old one carries traffic.
        yield from provisioner.setup_workflow(
            bridge, include_fxc=False, parent_span=span
        )
        move.bridge_s = sim.now - bridge_started
        reason = self._roll_blocker(connection, old, bridge)
        if not reason:
            # Roll: steer the FXCs to the new transponders.  Traffic takes
            # a brief hit while the client signal moves, and anything
            # that lands during it settles the move too.
            with span.child("roll.hit"):
                connection.begin_outage(sim.now)
                yield ROLL_HIT_S
                connection.end_outage(sim.now)
            reason = self._roll_blocker(connection, old, bridge)
        if reason:
            # Only the bridge is left to release.
            if bridge.state is LightpathState.UP:
                yield from provisioner.teardown_workflow(
                    bridge, include_fxc=False, parent_span=span
                )
            elif bridge.lightpath_id in controller.inventory.lightpaths:
                provisioner.release(bridge)
            span.set_tag("outcome", "aborted").finish()
            controller.metrics.inc("bridge_and_roll.aborted")
            controller.notify(
                "bridge-and-roll-aborted",
                {"connection_id": connection.connection_id},
            )
            self._settle(move, "aborted", reason, on_settled)
            return
        move.hit_s = ROLL_HIT_S
        move.new_path = list(bridge.path)
        controller.swap_lightpath(connection, old, bridge)
        # Release the old path in the background.
        yield from provisioner.teardown_workflow(
            old, include_fxc=False, parent_span=span
        )
        span.set_tag("outcome", "completed").finish()
        controller.metrics.inc("bridge_and_roll.completed")
        controller.metrics.observe("bridge_and_roll.bridge_s", move.bridge_s)
        controller.notify("bridge-and-roll", {
            "connection_id": connection.connection_id,
            "bridge_s": move.bridge_s,
            "hit_s": move.hit_s,
            "new_path": list(move.new_path),
        })
        self._settle(move, "completed", "", on_settled)

    def _settle(self, move, outcome, reason, on_settled) -> None:
        move.outcome, move.reason = outcome, reason
        # Free the lock first, so the callback can start the next move.
        del self._locks[move.connection_id]
        if on_settled is not None:
            on_settled(move)
