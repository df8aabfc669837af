"""The async BoD service frontend: edge gates, backpressure, streaming.

:class:`BodFrontend` stands between many concurrent simulated clients
and one order backend (a :class:`repro.pipeline.engine.RoundIntake` —
the monolithic pipeline or the sharded network).  Every submission
passes three edge gates **before the intake ever sees the order**, in
this sequence:

1. **Rate limiting** — the tenant's token bucket
   (:mod:`repro.frontend.ratelimit`); an empty bucket refuses with
   :data:`~repro.api.REJECT_RATE_LIMIT`.  This gate runs first so a
   noisy tenant burns its own budget, not the shared queue — the
   fairness property the no-starvation tests pin down.
2. **Quota probe** — :meth:`repro.core.admission.AdmissionControl.check`,
   the *non-mutating* probe: nothing is recorded against the ledger, so
   a refused (or later-deferred) request can never double-count quota.
   Refuses with :data:`~repro.api.REJECT_QUOTA`.
3. **Load shedding** — a two-state hysteresis machine over the depth of
   the intake's heap: OPEN until an admission brings it to
   ``shed_high``, then SHEDDING (every new submission refused with
   :data:`~repro.api.REJECT_SHED`) until the rounds drain it back to
   ``shed_low``.  The hard bound is ``min(queue_capacity,
   intake.capacity)``, so frontend traffic never trips intake QUEUE_FULL.

The frontend owns no queue: an admitted order goes straight into
:meth:`repro.pipeline.engine.RoundIntake.submit`, and the record that
call returns is the one the customer holds (:class:`FrontendTicket` is
:class:`repro.pipeline.OrderTicket`).  The intake stores the order's
terminal :data:`repro.api.OrderOutcome` on it — no polling; an edge
refusal builds its own record and resolves it with a typed
:class:`repro.api.Rejected`.

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
class: the intake's heap ranks their orders ahead of every standard
order, and they are shed last (hysteresis shedding refuses only
standard traffic; the hard bound refuses everyone).  The conservation
law holds per class too, over the ``frontend.*.premium`` /
``frontend.*.standard`` counters.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Optional, Tuple

from repro import api
from repro.core.admission import AdmissionControl
from repro.core.connection import ConnectionKind
from repro.errors import ConfigurationError
from repro.frontend.ratelimit import BucketSet
from repro.obs.registry import MetricsRegistry
from repro.pipeline.engine import OrderTicket, RoundIntake
from repro.sim.kernel import Simulator

#: Backpressure state: accepting submissions.
STATE_OPEN = "open"
#: Backpressure state: shedding every new submission until drained.
STATE_SHEDDING = "shedding"

#: Priority classes, heap order.  Premium tenants wait ahead of standard
#: ones and are shed last: hysteresis shedding refuses only standard
#: traffic; the hard bound still refuses everyone.
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


#: What :meth:`BodFrontend.submit` returns: the order's one record.
FrontendTicket = OrderTicket


class BodFrontend:
    """The always-on service edge in front of one order backend.

    Args:
        intake: Either :class:`repro.pipeline.engine.RoundIntake` backend.
        admission: The quota ledger the backend admits against — probed
            non-mutatingly at the edge.
        sim: The shared simulator.
        metrics: Registry for ``frontend.*`` counters/histograms/gauges
            (created fresh when None).
        tracer: Optional tracer for state-transition events.
        queue_capacity: The edge's bound on the intake's depth; the hard
            bound is the smaller of this and ``intake.capacity``.
        shed_high: Intake depth entering SHEDDING (default 3/4 of the
            hard bound).
        shed_low: Intake depth returning to OPEN (default 1/4 of the
            hard bound).
        bucket_rate: Default per-tenant sustained submissions/sim-second.
        bucket_burst: Default per-tenant burst allowance.
        premium_tenants: Tenants whose submissions ride the premium
            priority class (ranked first in the intake, shed last).
    """

    def __init__(
        self,
        intake: RoundIntake,
        admission: AdmissionControl,
        sim: Simulator,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        queue_capacity: int = 512,
        shed_high: Optional[int] = None,
        shed_low: Optional[int] = None,
        bucket_rate: float = 1.0,
        bucket_burst: float = 8.0,
        premium_tenants: Iterable[str] = (),
    ) -> None:
        if queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        bound = min(queue_capacity, intake.capacity)
        if shed_high is None:
            shed_high = max(1, (bound * 3) // 4)
        if shed_low is None:
            shed_low = bound // 4
        if not 0 <= shed_low < shed_high <= queue_capacity:
            raise ConfigurationError(
                f"need 0 <= shed_low < shed_high <= capacity, got "
                f"low={shed_low} high={shed_high} capacity={queue_capacity}"
            )
        self._intake = intake
        self._admission = admission
        self._sim = sim
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer
        self._capacity = bound
        self._shed_high = shed_high
        self._shed_low = shed_low
        self._buckets = BucketSet(bucket_rate, bucket_burst)
        self._premium = frozenset(premium_tenants)
        self._premium_counters = _DecisionCounters.of("premium")
        self._standard_counters = _DecisionCounters.of("standard")
        #: Rebuilt by add_listener, so an emit iterates a snapshot
        #: without copying it.
        self._listeners: Tuple[Callable[[OrderTicket, str], None], ...] = ()
        self._state = STATE_OPEN
        self._seq = itertools.count(1)
        intake.add_listener(self._on_intake_event)
        self._metrics.register_gauge(
            "frontend.queue_depth", intake.queue_depth
        )
        self._metrics.register_gauge(
            "frontend.queue_depth.premium", intake.premium_depth
        )
        self._metrics.register_gauge(
            "frontend.shedding", lambda: int(self.state == STATE_SHEDDING)
        )
        self._metrics.register_gauge(
            "frontend.tenants", lambda: len(self._buckets)
        )

    # -- introspection ---------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        """The simulator the edge's clock and futures run on."""
        return self._sim

    @property
    def state(self) -> str:
        """The backpressure state: ``"open"`` or ``"shedding"``."""
        return self._reopen()

    def queue_depth(self) -> int:
        """Orders waiting for a round in the intake's heap."""
        return self._intake.queue_depth()

    def priority_of(self, tenant: str) -> str:
        """The priority class a tenant's submissions ride in."""
        return "premium" if tenant in self._premium else "standard"

    @property
    def capacity(self) -> int:
        """The hard bound on the intake's depth the edge admits to."""
        return self._capacity

    def add_listener(
        self, listener: Callable[[OrderTicket, str], None]
    ) -> None:
        """Subscribe to the status stream.

        The listener receives ``(ticket, event)`` with events
        ``"rejected"`` (edge refusal), ``"admitted"`` (in the intake),
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
    ) -> OrderTicket:
        """Run the edge gates, then admit the request into the intake or
        refuse it.

        Always returns a ticket: for an admitted order, the record the
        intake returned; for an edge refusal, a record without an
        ``order-N`` id, resolved with a typed :class:`repro.api.Rejected`
        (never an exception, never an unbounded queue).

        Raises:
            AdmissionError: only for an unknown tenant — that is a
                caller bug, not a load outcome, so nothing is counted,
                no request id is spent and no bucket is created.
        """
        self._admission.profile(tenant)
        now = self._sim.now
        request_id = f"req-{next(self._seq)}"
        premium = tenant in self._premium
        counters = self._premium_counters if premium else self._standard_counters
        # Gate 1: the tenant's own request-rate budget.
        if not self._buckets.try_take(tenant, now):
            code, decided = api.REJECT_RATE_LIMIT, counters.rate_limited
            reason = f"tenant {tenant!r} exceeded its request rate"
        else:
            # Gate 2: non-mutating quota probe — the ledger is untouched,
            # so probing (and refusing) can never double-count quota.
            code, decided = api.REJECT_QUOTA, counters.over_quota
            reason = self._admission.check(
                tenant, premises_a, premises_b, rate_bps
            )
            if reason is None:
                # Gate 3: backpressure over the intake's depth.  The
                # hysteresis keeps shedding until the rounds drain the
                # heap to shed_low; the hard bound sits underneath it.
                # Premium traffic is shed last: it rides through
                # hysteresis shedding and is refused only at the hard
                # bound.
                shedding = self._reopen() == STATE_SHEDDING and not premium
                depth = self._intake.queue_depth()
                if shedding or depth >= self._capacity:
                    code, decided = api.REJECT_SHED, counters.shed
                    reason = f"service is shedding load ({depth} queued)"
        if reason is not None:
            # A refusal is a record the intake never sees: no order-N id.
            ticket = OrderTicket(
                self._sim, request_id, None, tenant, premises_a, premises_b,
                rate_bps, kind, now, "premium" if premium else "standard",
                None,
            )
            self._metrics.inc_each(decided)
            ticket._resolve(api.Rejected(request_id, code, reason, tenant))
            self._emit(ticket, "rejected")
            return ticket
        self._metrics.inc_each(counters.admitted)
        ticket = self._intake.submit(
            tenant, premises_a, premises_b, rate_bps, kind, premium=premium
        )
        ticket.request_id = request_id
        # Equals frontend.admitted by construction; kept while bench/ is
        # frozen: bench/layers.py reads it for its orders-per-round figure.
        self._metrics.inc("frontend.forwarded")
        depth = self._intake.queue_depth()
        if self._state == STATE_OPEN and depth >= self._shed_high:
            self._state = STATE_SHEDDING
            self._metrics.inc("frontend.shed_transitions")
            if self._tracer is not None:
                self._tracer.event("frontend.shedding", queue_depth=depth)
        self._emit(ticket, "admitted")
        return ticket

    # -- backpressure state machine --------------------------------------------

    def _reopen(self) -> str:
        """SHEDDING -> OPEN once the rounds drained depth to shed_low.

        With the edge as the heap's only producer, depth only falls
        between submissions (rounds pop; a defer pushes back what it
        popped), so checking at each submission and read is exact.
        """
        if self._state == STATE_SHEDDING:
            depth = self._intake.queue_depth()
            if depth <= self._shed_low:
                self._state = STATE_OPEN
                if self._tracer is not None:
                    self._tracer.event("frontend.open", queue_depth=depth)
        return self._state

    # -- outcome streaming -----------------------------------------------------

    def _on_intake_event(self, ticket: OrderTicket, event: str) -> None:
        """Intake listener: pass on the events of this edge's orders.

        Listeners hear an event before the intake stores the outcome it
        concludes (and schedules the future's callbacks).
        """
        if ticket.request_id is None:
            return  # submitted to the intake directly, not at this edge
        self._emit(ticket, event)
        if event == "active":
            self._metrics.inc("frontend.active")
            self._metrics.observe(
                "frontend.order_to_active_s",
                self._sim.now - ticket.submitted_at,
            )

    def _emit(self, ticket: OrderTicket, event: str) -> None:
        for listener in self._listeners:
            listener(ticket, event)
