"""Order entry: one bounded queue, scheduling rounds, defer policy.

:class:`RoundIntake` is the queue every order backend shares — tickets,
backpressure, the round process, the lifecycle event stream and the
typed outcome — and a backend says only what one round *places*.
:class:`OrderPipeline` is the backend that fronts one controller
(:class:`repro.shard.intake.ShardIntake` is the other).  ``submit()``
returns an :class:`OrderTicket` immediately; a kernel process drains the
queue in rounds of up to ``round_size`` orders.  Each pipeline round:

1. opens + admits every order (admission failures settle BLOCKED,
   exactly like the serial path);
2. plans all admitted orders' wavelengths in **one**
   :meth:`~repro.core.rwa.RwaEngine.plan_batch` call — routes, liveness,
   regen segmentation, and free-channel scans are shared across the
   round, and each plan is validated against wavelengths claimed by
   earlier orders in the same round;
3. claims and launches each order in round order, feeding the batch's
   plans into the controller's normal claim path.

Contention resolution is deterministic: orders are processed by
``(class, arrival time, tiebreak, submission sequence)``.  The class is
0 for a premium order the service edge admits and 1 for every other
(every direct caller).  The tiebreak is 0
by default (pure arrival order — required for the round-size-1
equivalence with the serial path); with ``seeded_tiebreak=True`` it is
a per-order uniform draw from a dedicated spawned stream family, giving
same-instant arrivals from many submitters a fair, seed-reproducible
shuffle.

An order that fails *only* because an earlier order in its round won
the wavelengths it wanted is **deferred**: its admission is returned,
its connection record withdrawn, and its ticket re-enters the queue
with its original key (so it is first in line next round — no
starvation).
After ``max_defers`` consecutive contention losses the ticket settles
as terminal DEFERRED.  Failures the serial path would also have
produced settle BLOCKED with the identical reason string.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.connection import ConnectionKind
from repro.core.rwa import PlanRequest
from repro.errors import ConfigurationError, GriphonError
from repro.sim.process import Process

#: The one table from backend lifecycle edges to the ticket events of
#: :meth:`RoundIntake.add_listener`.  Both backends speak the
#: controller's observer vocabulary (``GriphonController.observers`` /
#: ``ShardedNetwork.observers``); edges not listed are not ticket events.
_TICKET_EVENTS = {
    "up": "active",
    "restored": "active",
    "revived": "active",
    "setup-degraded": "degraded",
    "setup-failed": "failed",
    "released": "released",
}


class TicketState(Enum):
    """Lifecycle of a submitted order, as the customer sees it."""

    #: Waiting in the intake queue (or between defer rounds).
    QUEUED = "queued"
    #: Resources claimed; the connection is setting up (or up).
    ACCEPTED = "accepted"
    #: Refused for a reason the serial path would also refuse.
    BLOCKED = "blocked"
    #: Lost wavelength contention ``max_defers`` rounds in a row.
    DEFERRED = "deferred"
    #: Refused at submission because the intake queue was full.
    QUEUE_FULL = "queue-full"


#: Ticket states that will never change again.
_TERMINAL = (
    TicketState.ACCEPTED,
    TicketState.BLOCKED,
    TicketState.DEFERRED,
    TicketState.QUEUE_FULL,
)


class OrderTicket:
    """One order's record, from the service edge to its release.

    The one object an order is:
    :meth:`repro.frontend.service.BodFrontend.submit` and
    :meth:`RoundIntake.submit` return it, the intake's heap holds it
    (ordered by its stored ``(class, arrival, tiebreak, seq)`` key), both
    status streams pass it to their listeners, and it carries its own
    terminal typed outcome.  ``repro.frontend.service.FrontendTicket``
    names this class too.  An edge refusal builds one with a ``req-N`` id
    and nothing from the intake: no ``order-N`` id, no ``state``.

    ``state`` is the intake's vocabulary (:class:`TicketState`), set by
    :class:`RoundIntake` alone; ``outcome`` is :mod:`repro.api`'s,
    stored once when the order concludes — by the edge for a refusal, by
    the intake otherwise.  The :class:`~repro.frontend.aio.SimFuture`
    behind ``future`` is built the first time someone reads it (already
    resolved when the order has concluded, so a callback added then
    still fires at zero delay); a record nobody follows — most edge
    refusals under overload — never allocates one.

    A ``__slots__`` class: load benchmarks keep one per submission.  The
    heap compares records with ``<``; equality and hashing stay by
    identity.

    Attributes:
        request_id: Frontend-scoped id (``req-N``); ``None`` for an
            order submitted to the intake directly.  ``bench/layers.py``
            reads it on what ``frontend.submit`` returns.
        order_id: Intake-scoped id (``order-N``); ``None`` for an edge
            refusal.  ``bench/layers.py`` reads it on what
            ``intake.submit`` returns.
        customer: Submitting customer (``tenant`` is the same value).
        premises_a: One end of the requested connection.
        premises_b: The other end.
        rate_bps: Committed rate.
        kind: The requested :class:`ConnectionKind`, or None for the
            controller's choice.
        priority: ``"premium"`` or ``"standard"``.
        state: Current :class:`TicketState`; ``None`` for an edge
            refusal, which never reached the intake.
        connection_id: The connection record, once the order was
            processed (ACCEPTED or BLOCKED); ``None`` while queued, for
            QUEUE_FULL / terminal DEFERRED outcomes and for refusals.
            ``bench/driver.py`` reads it on the ``settled`` event.
        reason: Why the intake refused the order (BLOCKED / DEFERRED /
            QUEUE_FULL); empty otherwise.  An edge refusal's reason is
            in its :class:`~repro.api.Rejected` outcome.
        submitted_at: Sim time of submission.
        settled_at: Sim time the intake state became terminal; ``None``
            while queued and for refusals.  ``bench/driver.py``'s
            ``sim_fingerprint`` reads it.
        rounds_deferred: How many rounds the order lost contention and
            was retried.
    """

    __slots__ = (
        "request_id",
        "order_id",
        "customer",
        "premises_a",
        "premises_b",
        "rate_bps",
        "kind",
        "priority",
        "state",
        "connection_id",
        "reason",
        "submitted_at",
        "settled_at",
        "rounds_deferred",
        "_key",
        "_sim",
        "_outcome",
        "_future",
    )

    def __init__(
        self,
        sim,
        request_id: Optional[str],
        order_id: Optional[str],
        customer: str,
        premises_a: str,
        premises_b: str,
        rate_bps: float,
        kind: Optional[ConnectionKind],
        submitted_at: float,
        priority: str,
        state: Optional[TicketState],
    ) -> None:
        self.request_id = request_id
        self.order_id = order_id
        self.customer = customer
        self.premises_a = premises_a
        self.premises_b = premises_b
        self.rate_bps = rate_bps
        self.kind = kind
        self.priority = priority
        self.state = state
        self.connection_id: Optional[str] = None
        self.reason = ""
        self.submitted_at = submitted_at
        self.settled_at: Optional[float] = None
        self.rounds_deferred = 0
        self._key: Optional[Tuple[int, float, float, int]] = None
        self._sim = sim
        self._outcome = None
        self._future = None

    @property
    def tenant(self) -> str:
        """The submitting tenant (the frontend's name for ``customer``)."""
        return self.customer

    # bench/driver.py reads this on every ticket: the intake's handle for
    # an admitted order (the record itself), None for an edge refusal.
    @property
    def order_ticket(self) -> Optional["OrderTicket"]:
        """This record once the intake has it; None for an edge refusal."""
        return None if self.order_id is None else self

    # bench/driver.py reads this for each ticket's terminal outcome.
    @property
    def outcome(self):
        """The terminal :data:`repro.api.OrderOutcome`, or None while the
        order is in flight."""
        return self._outcome

    @property
    def future(self):
        """A :class:`~repro.frontend.aio.SimFuture` that resolves with the
        terminal outcome."""
        if self._future is None:
            # Imported here: repro.frontend imports this module.
            from repro.frontend.aio import SimFuture

            self._future = SimFuture(self._sim)
            if self._outcome is not None:
                self._future.resolve(self._outcome)
        return self._future

    @property
    def rejected(self) -> bool:
        """True when the request was refused at the edge."""
        return self.order_id is None

    @property
    def settled(self) -> bool:
        """True once the intake state became terminal."""
        return self.state in _TERMINAL

    def _resolve(self, outcome) -> None:
        """Store the terminal outcome; resolve the future if one exists."""
        self._outcome = outcome
        if self._future is not None:
            self._future.resolve(outcome)

    # The heap's order.  No __eq__ goes with it: bench/driver.py keys
    # dicts by ticket, so tickets must keep hashing by identity.
    def __lt__(self, other: "OrderTicket") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:
        if self.request_id is None:
            return (
                f"OrderTicket({self.order_id}, {self.premises_a}<->"
                f"{self.premises_b}, {self.state.value})"
            )
        status = "pending"
        if self._outcome is not None:
            status = type(self._outcome).__name__
        return f"FrontendTicket({self.request_id}, {self.customer}, {status})"


class RoundIntake:
    """The order-intake contract every backend implements.

    :meth:`submit` returns an :class:`OrderTicket` immediately
    (backpressure settles it QUEUE_FULL on the spot); :meth:`outcome`
    maps a ticket onto the typed union of :mod:`repro.api`, pulled live;
    listeners see every lifecycle edge.  The ticket is the order's one
    record: the intake queues it as it is and stores its terminal
    outcome on it (``ticket.outcome``) right after the listeners hear
    the edge that concludes it.  The async frontend targets exactly
    this class, which is what makes the monolithic pipeline and the
    sharded network swappable behind it; the frontend admits straight
    into the intake's heap, the one queue an order waits in, and hands
    its caller the ticket :meth:`submit` returned.

    This class owns everything about how orders *wait*: argument
    validation, the bounded priority heap, ticket issue with
    on-the-spot QUEUE_FULL, the ``pipeline.*`` counters, the
    round-cadence kernel process, the listener stream, the typed
    :meth:`outcome` and each ticket's stored terminal outcome.  What a
    round *places* is the backend's: a subclass supplies

    * ``_place(batch)`` — execute one round of popped tickets, calling
      :meth:`_settle` per order (or pushing the ticket back to retry it
      next round);
    * ``_record(ticket)`` — the order record (a :class:`~repro.core.
      connection.Connection`, or a stitched :class:`~repro.shard.
      network.ShardOrder`) a processed ticket points at;
    * ``_release(ticket)`` — start the teardown of an accepted ticket;

    and subscribes :meth:`_on_backend_event` to its backend's observers.

    Args:
        sim: The kernel the round process runs on.
        metrics: Registry for the ``pipeline.*`` counters and gauge.
        tracer: Tracer for the ``pipeline.queue_full`` event.
        capacity: Bounded queue size; submissions beyond it settle
            QUEUE_FULL immediately (backpressure).
        round_size: Maximum orders handed to one ``_place`` call.
        round_interval: Sim seconds between successive rounds while the
            queue is non-empty (0 = drain within one timestamp).
    """

    def __init__(
        self,
        sim,
        metrics,
        tracer,
        capacity: int,
        round_size: int,
        round_interval: float,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if round_size < 1:
            raise ConfigurationError(
                f"round_size must be >= 1, got {round_size}"
            )
        if round_interval < 0:
            raise ConfigurationError(
                f"round_interval must be >= 0, got {round_interval}"
            )
        self._sim = sim
        self._metrics = metrics
        self._tracer = tracer
        self._capacity = capacity
        self._round_size = round_size
        self._round_interval = float(round_interval)
        self._heap: List[OrderTicket] = []
        self._order_seq = itertools.count(1)
        self._arrival_seq = itertools.count(1)
        self._tickets: Dict[str, OrderTicket] = {}
        self._proc: Optional[Process] = None
        self._rounds = 0
        #: Rebuilt by add_listener, so an emit iterates a snapshot
        #: without copying it.
        self._listeners: Tuple[Callable[[OrderTicket, str], None], ...] = ()
        #: record id -> ACCEPTED ticket still owed lifecycle events; its
        #: setup has concluded once its outcome is stored.
        self._accepted: Dict[str, OrderTicket] = {}
        metrics.register_gauge("pipeline.queue_depth", self.queue_depth)

    def _tiebreak(self) -> float:
        """Priority between arrival time and submission sequence."""
        return 0.0

    # -- intake ----------------------------------------------------------------

    def submit(
        self,
        customer: str,
        premises_a: str,
        premises_b: str,
        rate_bps: float,
        kind: Optional[ConnectionKind] = None,
        premium: bool = False,
    ) -> OrderTicket:
        """Queue an order; returns its ticket immediately.

        A full queue settles the ticket as QUEUE_FULL on the spot —
        nothing is recorded against the backend, and the customer is
        expected to resubmit later (backpressure, not buffering).
        A ``premium`` order waits ahead of every standard one.
        """
        now = self._sim.now
        ticket = OrderTicket(
            self._sim,
            None,
            f"order-{next(self._order_seq)}",
            customer,
            premises_a,
            premises_b,
            rate_bps,
            kind,
            now,
            "premium" if premium else "standard",
            TicketState.QUEUED,
        )
        self._tickets[ticket.order_id] = ticket
        if len(self._heap) >= self._capacity:
            ticket.state = TicketState.QUEUE_FULL
            ticket.reason = (
                f"order intake queue is full ({self._capacity} waiting)"
            )
            ticket.settled_at = now
            self._metrics.inc("pipeline.queue_full")
            self._tracer.event("pipeline.queue_full", order=ticket.order_id)
            self._conclude(ticket, "settled")
            return ticket
        ticket._key = (
            0 if premium else 1, now, self._tiebreak(), next(self._arrival_seq)
        )
        heapq.heappush(self._heap, ticket)
        self._metrics.inc("pipeline.submitted")
        if self._proc is None or self._proc.done:
            self._proc = Process(
                self._sim, self._drain(), label="pipeline:rounds"
            )
        return ticket

    def teardown(self, ticket: OrderTicket) -> None:
        """Tear down an accepted ticket's connection.

        Raises:
            ConfigurationError: for a ticket that never claimed a
                connection (queued, refused, or deferred).
        """
        if ticket.state is not TicketState.ACCEPTED or (
            ticket.connection_id is None
        ):
            raise ConfigurationError(
                f"order {ticket.order_id!r} holds no connection to tear "
                f"down (state {ticket.state.value})"
            )
        self._release(ticket)

    # -- introspection ---------------------------------------------------------

    def ticket(self, order_id: str) -> OrderTicket:
        """Look up a ticket.

        Raises:
            ConfigurationError: for an unknown order id.
        """
        try:
            return self._tickets[order_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown order {order_id!r}"
            ) from None

    def tickets(self) -> List[OrderTicket]:
        """Every ticket ever issued, in submission order."""
        return list(self._tickets.values())

    def queue_depth(self) -> int:
        """Orders currently waiting for a round."""
        return len(self._heap)

    def premium_depth(self) -> int:
        """Premium orders currently waiting for a round."""
        return sum(1 for ticket in self._heap if not ticket._key[0])

    @property
    def rounds(self) -> int:
        """Scheduling rounds run so far."""
        return self._rounds

    @property
    def capacity(self) -> int:
        """The bounded queue size."""
        return self._capacity

    def outcome(self, ticket: OrderTicket, fault=None):
        """The ticket's typed status from :data:`repro.api.OrderStatus`,
        pulled live.

        ``None`` while the order is still queued.  This is where the
        intake-level refusals (:class:`~repro.api.QueueFull`,
        :class:`~repro.api.Deferred`) are built; every processed ticket
        is classified from its backend record by
        :func:`repro.api.classify_record`, with ``fault`` attached to a
        ``SetupFailed`` / ``ServiceDegraded`` outcome.  The terminal
        outcome ``ticket.outcome`` stores is this pull, taken when the
        order concluded.
        """
        from repro import api

        if ticket.state is TicketState.QUEUED:
            return None
        if ticket.state is TicketState.QUEUE_FULL:
            return api.QueueFull(
                order_id=ticket.order_id,
                capacity=self._capacity,
                reason=ticket.reason,
            )
        if ticket.state is TicketState.DEFERRED:
            return api.Deferred(
                order_id=ticket.order_id,
                rounds_deferred=ticket.rounds_deferred,
                reason=ticket.reason,
            )
        return api.classify_record(self._record(ticket), fault=fault)

    # -- lifecycle listeners ---------------------------------------------------

    def add_listener(
        self, listener: Callable[[OrderTicket, str], None]
    ) -> None:
        """Subscribe to ticket lifecycle events.

        The listener is called with ``(ticket, event)``: ``"settled"``
        at every terminal intake state (accepted / blocked / deferred /
        queue-full), then ``"active"`` / ``"degraded"`` / ``"failed"``
        when an accepted order's setup concludes, and ``"released"``
        after teardown.
        A listener added while an event is being emitted first hears
        the next one.
        """
        self._listeners += (listener,)

    def _emit(self, ticket: OrderTicket, event: str) -> None:
        """Broadcast one ticket lifecycle edge to every listener."""
        for listener in self._listeners:
            listener(ticket, event)

    def _conclude(self, ticket: OrderTicket, event: str) -> None:
        """Broadcast the edge that concludes a ticket, then store its
        terminal outcome (scheduling its future's callbacks, if any)."""
        self._emit(ticket, event)
        ticket._resolve(self.outcome(ticket))

    def _on_backend_event(self, edge: str, payload: dict) -> None:
        """Backend observer: re-broadcast an edge of an ACCEPTED ticket's
        record (``payload["connection"]``).

        The first conclusion edge is the ticket's *one* setup
        conclusion, and stores its outcome — ``restored`` or ``revived``
        when a cut during setup kept ``up`` from ever being sent; an
        in-service connection that is restored later gets no second
        ``"active"``.
        """
        event = _TICKET_EVENTS.get(edge)
        if event is None:
            return
        record_id = payload["connection"].connection_id
        ticket = self._accepted.get(record_id)
        if ticket is None:
            return
        if event == "released":
            del self._accepted[record_id]
            self._emit(ticket, event)
        elif ticket._outcome is None:
            self._conclude(ticket, event)

    # -- the round loop --------------------------------------------------------

    def _drain(self):
        """Kernel process: one scheduling round per ``round_interval``."""
        heap = self._heap
        while heap:
            self._rounds += 1
            self._metrics.inc("pipeline.rounds")
            take = min(self._round_size, len(heap))
            self._place([heapq.heappop(heap) for _ in range(take)])
            if heap:
                yield self._round_interval

    def _settle(self, ticket: OrderTicket, state: TicketState, record_id: str,
                reason: str = "") -> None:
        """Finalize a processed ticket against its backend record."""
        ticket.state = state
        ticket.settled_at = self._sim.now
        ticket.connection_id = record_id
        if state is TicketState.BLOCKED:
            ticket.reason = reason
            self._metrics.inc("pipeline.blocked")
            self._conclude(ticket, "settled")
        else:
            self._metrics.inc("pipeline.accepted")
            self._accepted[record_id] = ticket
            self._emit(ticket, "settled")


class OrderPipeline(RoundIntake):
    """Batched, deterministic order intake in front of a controller.

    Args:
        controller: The controller orders are executed against.
        capacity: Bounded queue size; submissions beyond it settle
            QUEUE_FULL immediately (backpressure).
        round_size: Maximum orders admitted+planned+claimed per round.
        round_interval: Sim seconds between successive rounds while the
            queue is non-empty (0 = drain within one timestamp).
        max_defers: Contention losses an order may retry before its
            ticket settles as terminal DEFERRED.
        seeded_tiebreak: Draw a uniform tiebreak per order from the
            controller streams' spawned ``"pipeline"`` family, applied
            between arrival time and submission order.  Off by default:
            pure arrival order is what makes ``round_size=1`` match the
            serial path byte for byte.
    """

    def __init__(
        self,
        controller,
        capacity: int = 256,
        round_size: int = 8,
        round_interval: float = 0.0,
        max_defers: int = 3,
        seeded_tiebreak: bool = False,
    ) -> None:
        if max_defers < 0:
            raise ConfigurationError(
                f"max_defers must be >= 0, got {max_defers}"
            )
        super().__init__(
            controller.sim,
            controller.metrics,
            controller.tracer,
            capacity,
            round_size,
            round_interval,
        )
        self._controller = controller
        self._max_defers = max_defers
        self._tiebreak_streams = (
            controller.streams.spawn("pipeline") if seeded_tiebreak else None
        )
        controller.observers.append(self._on_backend_event)

    # -- the backend half ------------------------------------------------------

    def _tiebreak(self) -> float:
        if self._tiebreak_streams is None:
            return 0.0
        return self._tiebreak_streams.uniform("tiebreak", 0.0, 1.0)

    def _record(self, ticket: OrderTicket):
        return self._controller.connection(ticket.connection_id)

    def _release(self, ticket: OrderTicket) -> None:
        self._controller.teardown_connection(ticket.connection_id)

    def _place(self, batch: List[OrderTicket]) -> None:
        """Admit, batch-plan, and claim one round's orders."""
        ctrl = self._controller
        round_span = self._tracer.span(
            "pipeline.round", round=self._rounds, orders=len(batch)
        )

        # Phase 1: open + admit in arrival order; collect plan requests.
        # (ticket, connection, span, decomposition, slice of requests)
        admitted = []
        requests: List[PlanRequest] = []
        for ticket in batch:
            connection, span = ctrl.open_order(
                ticket.customer,
                ticket.premises_a,
                ticket.premises_b,
                ticket.rate_bps,
                ticket.kind,
            )
            if not ctrl.admit_order(connection, span):
                self._settle_blocked(ticket, connection)
                continue
            try:
                # Same call order as the serial claim path, so a bad
                # premises name, an unrealizable rate or a premises NTE
                # that is already full blocks with the identical reason
                # string — before the order costs the batch plan a thing.
                pop_a = ctrl.inventory.pop_of(ticket.premises_a)
                pop_b = ctrl.inventory.pop_of(ticket.premises_b)
                decomposition = ctrl.prepare_order(connection, ticket.kind)
            except GriphonError as exc:
                ctrl.block_admitted_order(connection, span, exc)
                self._settle_blocked(ticket, connection)
                continue
            waves = [] if decomposition is None else decomposition[0]
            start = len(requests)
            for rate in waves:
                requests.append(PlanRequest(pop_a, pop_b, rate))
            admitted.append(
                (ticket, connection, span, decomposition,
                 slice(start, len(requests)))
            )

        # Phase 2: one batched RWA pass for the whole round.
        items = (
            ctrl.rwa.plan_batch(requests, parent_span=round_span)
            if requests
            else []
        )

        # Phase 3: claim + launch in round order.
        claimed_any = False
        for ticket, connection, span, decomposition, request_slice in admitted:
            order_items = items[request_slice]
            failed = next(
                (item for item in order_items if item.error is not None), None
            )
            if failed is not None:
                if failed.contended and ticket.rounds_deferred < self._max_defers:
                    self._defer(ticket, connection, span, str(failed.error))
                elif failed.contended:
                    self._settle_deferred(ticket, connection, span, failed.error)
                else:
                    ctrl.block_admitted_order(connection, span, failed.error)
                    self._settle_blocked(ticket, connection)
                continue
            plans = iter([item.plan for item in order_items])

            def planner(
                source,
                destination,
                rate_bps,
                parent_span=None,
                _plans=plans,
            ):
                # Serves this order's batch plans to the claim path in
                # wave order, standing in for RwaEngine.plan.
                return next(_plans)

            try:
                ctrl.launch_order(
                    connection, ticket.kind, span, planner, decomposition
                )
            except GriphonError as exc:
                # Wavelengths were validated by the batch and terminations
                # at round start, but claims can still lose transponders,
                # regens, ports or NTE interfaces to an earlier order in
                # this round — worth one replan next round.  Without an
                # earlier claimant the serial path would have failed the
                # same way: settle BLOCKED with the identical reason.
                if claimed_any and ticket.rounds_deferred < self._max_defers:
                    self._defer(ticket, connection, span, str(exc))
                else:
                    ctrl.block_admitted_order(connection, span, exc)
                    self._settle_blocked(ticket, connection)
                continue
            claimed_any = True
            self._settle(
                ticket, TicketState.ACCEPTED, connection.connection_id
            )

        round_span.set_tag("queued_after", len(self._heap)).finish()

    # -- settlement ------------------------------------------------------------

    def _settle_blocked(self, ticket: OrderTicket, connection) -> None:
        """Settle a ticket BLOCKED with its record's reason string."""
        self._settle(
            ticket,
            TicketState.BLOCKED,
            connection.connection_id,
            connection.blocked_reason,
        )

    def _defer(self, ticket: OrderTicket, connection, span, reason: str) -> None:
        """Return a contention loser to the queue with its old key."""
        self._controller.abandon_order(connection, span, reason)
        ticket.rounds_deferred += 1
        self._metrics.inc("pipeline.deferred")
        heapq.heappush(self._heap, ticket)

    def _settle_deferred(
        self, ticket: OrderTicket, connection, span, error: Exception
    ) -> None:
        """Terminal DEFERRED: contention persisted past ``max_defers``."""
        self._controller.abandon_order(connection, span, str(error))
        ticket.state = TicketState.DEFERRED
        ticket.settled_at = self._sim.now
        ticket.reason = (
            f"lost wavelength contention {ticket.rounds_deferred + 1} round(s) "
            f"in a row: {error}"
        )
        self._metrics.inc("pipeline.deferred_terminal")
        self._conclude(ticket, "settled")
