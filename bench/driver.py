"""The load driver: replay a schedule through the frontend and observe.

The driver is the benchmark's only actor inside the simulation.  It
submits each scheduled order through ``BodFrontend.submit``, tears every
connection down after its holding time, applies the cut/repair
schedule, and keeps the per-order sim timestamps the end-to-end metrics
and the fingerprint are computed from.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from bench.workloads import World
from repro import api
from repro.core.admission import CustomerProfile
from repro.units import GBPS

#: Sim seconds before a teardown that found its connection not UP retries.
TEARDOWN_RETRY_S = 30.0


class Driver:
    """Replays ``world.schedule`` and records what became of each order."""

    def __init__(self, world: World) -> None:
        self.world = world
        self._sim = world.sim
        self._frontend = world.frontend
        self._intake = world.intake
        self._registered: set = set()
        self._hold: Dict[object, float] = {}
        self._teardown_ordered: Dict[object, float] = {}
        self.tickets: List[object] = []
        #: ticket -> sim time of its ``active`` event.
        self.active_at: Dict[object, float] = {}
        #: ticket -> status pulled from the intake for an order that came
        #: up through restoration, which the push stream never reports.
        self.pulled_outcome: Dict[object, object] = {}
        self._by_connection: Dict[str, object] = {}
        self.teardown_sim_s: List[float] = []
        self.teardown_deferred = 0
        self.queue_depth_max = 0
        self.events = 0

    # -- the run -------------------------------------------------------------

    def load(self) -> None:
        """Hand the whole schedule to the kernel in one batch.

        Methods are bound here, not in ``__init__``, so the traced run
        can wrap them first.
        """
        self._frontend.add_listener(self.on_event)
        for controller in self.world.controllers.values():
            if controller.auto_restore:
                controller.observers.append(self.on_controller_event)
        schedule = self.world.schedule
        entries = [(order.at, self.submit, (order,)) for order in schedule.orders]
        controller = next(iter(self.world.controllers.values()))
        for cut in schedule.cuts:
            entries.append((cut.at, controller.cut_link, (cut.a, cut.b)))
            entries.append((cut.repair_at, controller.repair_link, (cut.a, cut.b)))
        self._sim.schedule_many(entries)

    def run(self) -> None:
        """Drain the schedule: every order submitted, held and released."""
        self.events = self._sim.run()

    def submit(self, order) -> None:
        if order.tenant not in self._registered:
            quota = self.world.tenant_connections
            self.world.admission.register_customer(
                CustomerProfile(
                    order.tenant,
                    max_connections=quota,
                    max_total_rate_bps=quota * 12 * GBPS,
                )
            )
            self._registered.add(order.tenant)
        ticket = self._frontend.submit(
            order.tenant, order.premises_a, order.premises_b,
            order.rate_gbps * GBPS,
        )
        self.tickets.append(ticket)
        self._hold[ticket] = order.hold_s
        depth = self._frontend.queue_depth()
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth

    def teardown(self, ticket) -> None:
        """Order the teardown if the connection is in service, else retry.

        ``teardown_connection`` during a restoration raises out of the
        kernel (a product bug, see README), so a connection that is
        neither UP nor (partially set up) DEGRADED waits.
        """
        outcome = self._intake.outcome(ticket.order_ticket)
        if isinstance(outcome, (api.Active, api.ServiceDegraded)):
            self._teardown_ordered[ticket] = self._sim.now
            self._intake.teardown(ticket.order_ticket)
        else:
            self.teardown_deferred += 1
            self._sim.schedule(TEARDOWN_RETRY_S, self.teardown, ticket)

    def on_controller_event(self, event: str, payload: dict) -> None:
        """Stand in for the ``active`` event the product never sends.

        A cut that lands during an order's setup brings the connection
        up through restoration: the controller says ``restored``, the
        intake re-broadcasts nothing, and the frontend ticket stays
        pending for ever (a product bug, see README).  The driver takes
        the order as active from here, with the intake's pulled status
        as its outcome, so it is held, torn down and counted like any
        other.
        """
        if event != "restored":
            return
        ticket = self._by_connection.get(payload["connection"].connection_id)
        if ticket is not None and self.outcome_of(ticket) is None:
            self.pulled_outcome[ticket] = self._intake.outcome(ticket.order_ticket)
            self.on_event(ticket, "active")

    def outcome_of(self, ticket):
        """The ticket's terminal outcome (pushed, else pulled; else None)."""
        return ticket.outcome or self.pulled_outcome.get(ticket)

    def on_event(self, ticket, event: str) -> None:
        if event == "settled" and self.world.schedule.cuts:
            self._by_connection[ticket.order_ticket.connection_id] = ticket
        elif event == "active":
            self.active_at[ticket] = self._sim.now
        if event in ("active", "degraded"):
            # A degraded order holds resources too; it is torn down like
            # an active one so every run ends with an empty network.
            self._sim.schedule(self._hold[ticket], self.teardown, ticket)
        elif event == "released":
            self.teardown_sim_s.append(
                self._sim.now - self._teardown_ordered.pop(ticket)
            )

    # -- what the run produced -----------------------------------------------

    @property
    def submissions(self) -> int:
        return len(self.tickets)

    def unfinished(self) -> int:
        """Operations the system never concluded: tickets without a
        terminal typed outcome, and teardowns ordered but not released."""
        return len(self._teardown_ordered) + sum(
            not isinstance(self.outcome_of(ticket), api.TERMINAL_OUTCOMES)
            for ticket in self.tickets
        )

    def order_to_active_sim_s(self) -> List[float]:
        return [
            at - ticket.submitted_at for ticket, at in self.active_at.items()
        ]

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for ticket in self.tickets:
            name = type(self.outcome_of(ticket)).__name__
            counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items()))

    def restore_sim_s(self) -> List[float]:
        """Outage of each >= 10 Gb/s connection a cut hit and that is
        back in service (or already released) -- its ``total_outage_s``."""
        return [
            connection.total_outage_s
            for controller in self.world.controllers.values()
            for connection in controller.connections.values()
            if connection.rate_bps >= 10 * GBPS
            and connection.total_outage_s > 0
            and connection.outage_started_at is None
        ]

    def sim_fingerprint(self) -> str:
        """sha256 over every ticket's outcome type, settle and active sim
        times, and the event count.  A wall-only change must keep it."""
        digest = hashlib.sha256()
        for ticket in self.tickets:
            order: Optional[object] = ticket.order_ticket
            digest.update(
                repr(
                    (
                        type(self.outcome_of(ticket)).__name__,
                        None if order is None else order.settled_at,
                        self.active_at.get(ticket),
                    )
                ).encode()
            )
        digest.update(repr(self.events).encode())
        return digest.hexdigest()
