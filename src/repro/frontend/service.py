"""The async BoD service frontend: edge gates, backpressure, streaming.

:class:`BodFrontend` stands between many concurrent simulated clients
and one order backend (anything implementing
:class:`repro.api.OrderIntake` — the monolithic pipeline or the sharded
network).  Every submission passes three edge gates **before the intake
ever sees the order**, in this sequence:

1. **Rate limiting** — the tenant's token bucket
   (:mod:`repro.frontend.ratelimit`); an empty bucket refuses with
   :data:`~repro.api.REJECT_RATE_LIMIT`.  This gate runs first so a
   noisy tenant burns its own budget, not the shared queue — the
   fairness property the no-starvation tests pin down.
2. **Quota probe** — :meth:`repro.core.admission.AdmissionControl.check`,
   the *non-mutating* probe: nothing is recorded against the ledger, so
   a refused (or later-deferred) request can never double-count quota.
   Refuses with :data:`~repro.api.REJECT_QUOTA`.
3. **Load shedding** — a two-state hysteresis machine over the bounded
   submission queue: OPEN until depth reaches ``shed_high``, then
   SHEDDING (every new submission refused with
   :data:`~repro.api.REJECT_SHED`) until the pump drains depth back to
   ``shed_low``.  The queue itself is a hard bound; nothing ever queues
   unboundedly.

Admitted orders wait in the submission queue; a kernel pump process
forwards them to the intake only while the intake's own bounded queue
has room, so frontend traffic never triggers intake QUEUE_FULL
backpressure.  Each submission returns a :class:`FrontendTicket` whose
future resolves — via the intake's listener stream, no polling — with
the order's terminal :data:`repro.api.OrderOutcome`.

Every decision is counted: ``frontend.submitted`` equals
``frontend.admitted + frontend.shed + frontend.throttled`` at all times
(the conservation law the property tests check) — by construction, since
a submission's total, class, outcome and detail counters move together
in one :meth:`~repro.obs.registry.MetricsRegistry.inc_each` call.
Admitted orders that reach service record the
``frontend.order_to_active_s`` histogram.  An unknown tenant is a
caller bug: :meth:`BodFrontend.submit` raises before it counts anything,
spends a request id or materializes a token bucket.

Tenants named in ``premium_tenants`` ride the **premium** priority
class: their orders are pumped before any standard order and are shed
last (hysteresis shedding refuses only standard traffic; the hard
capacity bound refuses everyone).  The conservation law holds per
class too, over the ``frontend.*.premium`` / ``frontend.*.standard``
counters.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, Dict, Iterable, NamedTuple, Optional, Tuple

from repro import api
from repro.core.admission import AdmissionControl
from repro.core.connection import ConnectionKind
from repro.errors import ConfigurationError
from repro.frontend.aio import SimFuture
from repro.frontend.ratelimit import BucketSet
from repro.obs.registry import MetricsRegistry
from repro.pipeline.engine import OrderTicket, TicketState
from repro.sim.kernel import Simulator
from repro.sim.process import Process

#: Backpressure state: accepting submissions.
STATE_OPEN = "open"
#: Backpressure state: shedding every new submission until drained.
STATE_SHEDDING = "shedding"

#: Priority classes, pump order.  Premium tenants are forwarded first
#: and shed last: hysteresis shedding refuses only standard traffic;
#: the hard capacity bound still refuses everyone.
PRIORITY_CLASSES = ("premium", "standard")


class _DecisionCounters(NamedTuple):
    """One priority class's counter names, per edge decision.

    Each tuple is what one :meth:`MetricsRegistry.inc_each` call bumps:
    the submission total and class, the outcome and its class, then the
    detail — the order the counters are first created in.
    """

    admitted: Tuple[str, ...]
    shed: Tuple[str, ...]
    rate_limited: Tuple[str, ...]
    over_quota: Tuple[str, ...]

    @classmethod
    def of(cls, level: str) -> "_DecisionCounters":
        submitted = ("frontend.submitted", f"frontend.submitted.{level}")
        throttled = submitted + (
            "frontend.throttled", f"frontend.throttled.{level}"
        )
        return cls(
            admitted=submitted
            + ("frontend.admitted", f"frontend.admitted.{level}"),
            shed=submitted + ("frontend.shed", f"frontend.shed.{level}"),
            rate_limited=throttled + ("frontend.throttled.rate_limit",),
            over_quota=throttled + ("frontend.throttled.quota",),
        )


class FrontendTicket:
    """One request's handle: edge decision plus the pushed outcome.

    ``future`` resolves when the order reaches a terminal
    :data:`repro.api.OrderOutcome` (``future.add_done_callback``);
    ``outcome`` offers the same value pull-style (None while pending).

    Attributes:
        request_id: Frontend-scoped id (``req-N``).
        tenant: The submitting tenant.
        premises_a: One end of the requested connection.
        premises_b: The other end.
        rate_bps: Committed rate.
        submitted_at: Sim time of submission.
        future: Resolves with the terminal outcome.
        order_ticket: The backend ticket, once the pump forwarded the
            order (None for edge-rejected or still-queued requests).
    """

    __slots__ = (
        "request_id",
        "tenant",
        "premises_a",
        "premises_b",
        "rate_bps",
        "kind",
        "submitted_at",
        "future",
        "order_ticket",
        "priority",
    )

    def __init__(
        self,
        request_id: str,
        tenant: str,
        premises_a: str,
        premises_b: str,
        rate_bps: float,
        kind: Optional[ConnectionKind],
        submitted_at: float,
        future: SimFuture,
        priority: str = "standard",
    ) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.premises_a = premises_a
        self.premises_b = premises_b
        self.rate_bps = rate_bps
        self.kind = kind
        self.submitted_at = submitted_at
        self.future = future
        self.priority = priority
        self.order_ticket: Optional[OrderTicket] = None

    @property
    def outcome(self) -> Optional[api.OrderOutcome]:
        """The terminal outcome, or None while the order is in flight."""
        return self.future.result() if self.future.done else None

    @property
    def rejected(self) -> bool:
        """True when the request was refused at the edge."""
        return self.future.done and isinstance(
            self.future.result(), api.Rejected
        )

    def __repr__(self) -> str:
        status = "pending"
        if self.future.done:
            status = type(self.future.result()).__name__
        return f"FrontendTicket({self.request_id}, {self.tenant}, {status})"


class BodFrontend:
    """The always-on service edge in front of one order backend.

    Args:
        intake: Any :class:`repro.api.OrderIntake` backend.
        admission: The quota ledger the backend admits against — probed
            non-mutatingly at the edge.
        sim: The shared simulator.
        metrics: Registry for ``frontend.*`` counters/histograms/gauges
            (created fresh when None).
        tracer: Optional tracer for state-transition events.
        queue_capacity: Bound on the submission queue (hard limit).
        shed_high: Queue depth entering SHEDDING (default 3/4 capacity).
        shed_low: Queue depth returning to OPEN (default 1/4 capacity).
        bucket_rate: Default per-tenant sustained submissions/sim-second.
        bucket_burst: Default per-tenant burst allowance.
        pump_interval: Sim seconds between pump passes while the intake
            is full.
        premium_tenants: Tenants whose submissions ride the premium
            priority class (pumped first, shed last).
    """

    def __init__(
        self,
        intake: api.OrderIntake,
        admission: AdmissionControl,
        sim: Simulator,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        queue_capacity: int = 512,
        shed_high: Optional[int] = None,
        shed_low: Optional[int] = None,
        bucket_rate: float = 1.0,
        bucket_burst: float = 8.0,
        pump_interval: float = 0.05,
        premium_tenants: Iterable[str] = (),
    ) -> None:
        if queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if shed_high is None:
            shed_high = max(1, (queue_capacity * 3) // 4)
        if shed_low is None:
            shed_low = queue_capacity // 4
        if not 0 <= shed_low < shed_high <= queue_capacity:
            raise ConfigurationError(
                f"need 0 <= shed_low < shed_high <= capacity, got "
                f"low={shed_low} high={shed_high} capacity={queue_capacity}"
            )
        if pump_interval <= 0:
            raise ConfigurationError(
                f"pump_interval must be > 0, got {pump_interval}"
            )
        self._intake = intake
        self._admission = admission
        self._sim = sim
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer
        self._capacity = queue_capacity
        self._shed_high = shed_high
        self._shed_low = shed_low
        self._pump_interval = float(pump_interval)
        self._buckets = BucketSet(bucket_rate, bucket_burst)
        self._premium = frozenset(premium_tenants)
        #: Two-level submission queue: the pump always drains premium
        #: first; both levels share the single capacity bound.
        self._premium_queue: Deque[FrontendTicket] = deque()
        self._standard_queue: Deque[FrontendTicket] = deque()
        self._premium_counters = _DecisionCounters.of("premium")
        self._standard_counters = _DecisionCounters.of("standard")
        self._by_order: Dict[str, FrontendTicket] = {}
        #: Rebuilt by add_listener, so an emit iterates a snapshot
        #: without copying it.
        self._listeners: Tuple[Callable[[FrontendTicket, str], None], ...] = ()
        self._state = STATE_OPEN
        self._seq = itertools.count(1)
        self._proc: Optional[Process] = None
        intake.add_listener(self._on_intake_event)
        self._metrics.register_gauge(
            "frontend.queue_depth", self.queue_depth
        )
        self._metrics.register_gauge(
            "frontend.queue_depth.premium",
            lambda: len(self._premium_queue),
        )
        self._metrics.register_gauge(
            "frontend.shedding", lambda: int(self._state == STATE_SHEDDING)
        )
        self._metrics.register_gauge(
            "frontend.tenants", lambda: len(self._buckets)
        )

    # -- introspection ---------------------------------------------------------

    @property
    def state(self) -> str:
        """The backpressure state: ``"open"`` or ``"shedding"``."""
        return self._state

    def queue_depth(self) -> int:
        """Admitted orders waiting to be forwarded to the intake."""
        return len(self._premium_queue) + len(self._standard_queue)

    def priority_of(self, tenant: str) -> str:
        """The priority class a tenant's submissions ride in."""
        return "premium" if tenant in self._premium else "standard"

    @property
    def capacity(self) -> int:
        """The submission queue's hard bound."""
        return self._capacity

    def add_listener(
        self, listener: Callable[[FrontendTicket, str], None]
    ) -> None:
        """Subscribe to the status stream.

        The listener receives ``(ticket, event)`` with events
        ``"rejected"`` (edge refusal), ``"admitted"`` (queued),
        ``"settled"`` (backend intake decision), then ``"active"`` /
        ``"degraded"`` / ``"failed"`` and ``"released"`` as the backend
        streams them.  A listener added while an event is being emitted
        first hears the next one.
        """
        self._listeners += (listener,)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        tenant: str,
        premises_a: str,
        premises_b: str,
        rate_bps: float,
        kind: Optional[ConnectionKind] = None,
    ) -> FrontendTicket:
        """Run the edge gates and either queue or refuse the request.

        Always returns a ticket; an edge refusal resolves the ticket's
        future with a typed :class:`repro.api.Rejected` (never an
        exception, never an unbounded queue).

        Raises:
            AdmissionError: only for an unknown tenant — that is a
                caller bug, not a load outcome, so nothing is counted,
                no request id is spent and no bucket is created.
        """
        self._admission.profile(tenant)
        now = self._sim.now
        if tenant in self._premium:
            priority = "premium"
            queue = self._premium_queue
            counters = self._premium_counters
        else:
            priority = "standard"
            queue = self._standard_queue
            counters = self._standard_counters
        ticket = FrontendTicket(
            f"req-{next(self._seq)}",
            tenant,
            premises_a,
            premises_b,
            rate_bps,
            kind,
            now,
            SimFuture(self._sim),
            priority,
        )
        # Gate 1: the tenant's own request-rate budget.
        if not self._buckets.try_take(tenant, now):
            return self._reject(
                ticket,
                api.REJECT_RATE_LIMIT,
                f"tenant {tenant!r} exceeded its request rate",
                counters.rate_limited,
            )
        # Gate 2: non-mutating quota probe — the ledger is untouched,
        # so probing (and refusing) can never double-count quota.
        reason = self._admission.check(tenant, premises_a, premises_b, rate_bps)
        if reason is not None:
            return self._reject(
                ticket, api.REJECT_QUOTA, reason, counters.over_quota
            )
        # Gate 3: backpressure.  The hysteresis keeps shedding until the
        # pump drains the backlog to shed_low; the capacity check is the
        # hard bound underneath it.  Premium traffic is shed last: it
        # rides through hysteresis shedding and is refused only at the
        # hard capacity bound.
        depth = len(self._premium_queue) + len(self._standard_queue)
        shedding = self._state == STATE_SHEDDING and priority != "premium"
        if shedding or depth >= self._capacity:
            return self._reject(
                ticket,
                api.REJECT_SHED,
                f"service is shedding load ({depth} queued)",
                counters.shed,
            )
        self._metrics.inc_each(counters.admitted)
        queue.append(ticket)
        self._update_shed_state()
        self._ensure_pumping()
        self._emit(ticket, "admitted")
        return ticket

    def _reject(
        self,
        ticket: FrontendTicket,
        code: str,
        reason: str,
        counters: Tuple[str, ...],
    ) -> FrontendTicket:
        """Resolve a ticket with a typed edge refusal and count it."""
        self._metrics.inc_each(counters)
        ticket.future.resolve(
            api.Rejected(ticket.request_id, code, reason, ticket.tenant)
        )
        self._emit(ticket, "rejected")
        return ticket

    # -- backpressure state machine --------------------------------------------

    def _update_shed_state(self) -> None:
        """Hysteresis: OPEN -> SHEDDING at shed_high, back at shed_low."""
        depth = len(self._premium_queue) + len(self._standard_queue)
        if self._state == STATE_OPEN and depth >= self._shed_high:
            self._state = STATE_SHEDDING
            self._metrics.inc("frontend.shed_transitions")
            if self._tracer is not None:
                self._tracer.event("frontend.shedding", queue_depth=depth)
        elif self._state == STATE_SHEDDING and depth <= self._shed_low:
            self._state = STATE_OPEN
            if self._tracer is not None:
                self._tracer.event("frontend.open", queue_depth=depth)

    # -- the pump --------------------------------------------------------------

    def _ensure_pumping(self) -> None:
        if self._proc is None or self._proc.done:
            self._proc = Process(
                self._sim, self._pump(), label="frontend:pump"
            )

    def _pump(self):
        """Kernel process: forward queued orders while the intake has
        room, always draining the premium level first."""
        premium, standard = self._premium_queue, self._standard_queue
        while premium or standard:
            room = self._intake.capacity - self._intake.queue_depth()
            while room > 0 and (premium or standard):
                ticket = (premium or standard).popleft()
                order = self._intake.submit(
                    ticket.tenant,
                    ticket.premises_a,
                    ticket.premises_b,
                    ticket.rate_bps,
                    ticket.kind,
                )
                ticket.order_ticket = order
                self._by_order[order.order_id] = ticket
                self._metrics.inc("frontend.forwarded")
                if order.settled and order.state is TicketState.QUEUE_FULL:
                    # Only possible when another producer fills the
                    # intake behind our depth check; surface it typed.
                    self._finish(ticket)
                room -= 1
            self._update_shed_state()
            if premium or standard:
                yield self._pump_interval

    # -- outcome streaming -----------------------------------------------------

    def _on_intake_event(self, order: OrderTicket, event: str) -> None:
        """Backend listener: resolve futures, re-broadcast the stream."""
        ticket = self._by_order.get(order.order_id)
        if ticket is None:
            return
        if event == "settled":
            self._emit(ticket, "settled")
            if order.state is not TicketState.ACCEPTED:
                # BLOCKED / DEFERRED / QUEUE_FULL are terminal now;
                # accepted orders resolve on their setup conclusion.
                self._finish(ticket)
        elif event in ("active", "degraded", "failed"):
            self._emit(ticket, event)
            self._finish(ticket)
        elif event == "released":
            self._emit(ticket, "released")

    def _finish(self, ticket: FrontendTicket) -> None:
        """Resolve a ticket's future with its typed terminal outcome."""
        if ticket.future.done:
            return
        outcome = self._intake.outcome(ticket.order_ticket)
        if isinstance(outcome, api.Active):
            self._metrics.inc("frontend.active")
            self._metrics.observe(
                "frontend.order_to_active_s",
                self._sim.now - ticket.submitted_at,
            )
        ticket.future.resolve(outcome)

    def _emit(self, ticket: FrontendTicket, event: str) -> None:
        for listener in self._listeners:
            listener(ticket, event)
