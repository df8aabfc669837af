"""The unified typed order API: one closed set of order outcomes.

Until this module existed, a caller following an order end to end had
to import from three packages: :class:`~repro.core.connection.Connection`
records (blocked/active results) from ``repro.core.connection``, ticket
states from ``repro.pipeline``, and the typed refusals
(``QueueFull``/``Deferred``/``SetupFailed``/``ServiceDegraded``) from
``repro.core.service``.  ``repro.api`` consolidates the surface:

* the **terminal outcomes** — :data:`OrderOutcome` — are a closed union
  of eight types (:class:`Active`, :class:`Blocked`, :class:`QueueFull`,
  :class:`Deferred`, :class:`SetupFailed`, :class:`ServiceDegraded`,
  :class:`SlaBreached`, :class:`Rejected`); match on
  :data:`TERMINAL_OUTCOMES` and the set is complete;
* :class:`Accepted` is the one non-terminal status (resources claimed,
  setup in flight); :data:`OrderStatus` is ``Accepted | OrderOutcome``;
* :class:`~repro.pipeline.engine.RoundIntake` is the one intake
  contract: both order backends (the monolithic
  :class:`~repro.pipeline.engine.OrderPipeline` and the sharded
  :class:`~repro.shard.intake.ShardIntake`) subclass it, so the async
  frontend — and any other caller — is backend-agnostic.

``BodService.order_outcome`` and the frontend's status stream both
return values from this union.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Tuple, Union

from repro import FrozenRecord, record_eq, record_ne
from repro.core.connection import ConnectionState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.connection import Connection
    from repro.core.service import FaultReport
    from repro.shard.network import ShardOrder


class _ConnectionOutcome(FrozenRecord):
    """Shared delegation for outcomes that wrap a connection record.

    The wrapped ``connection`` is the backend's per-order record: a
    :class:`~repro.core.connection.Connection`, or a sharded network's
    stitched :class:`~repro.shard.network.ShardOrder`.  Both carry the
    fields read here (a stitched order's ``trace_id`` is always None),
    so callers match on the outcome type and read the record's own
    fields.
    """

    __slots__ = ("connection",)
    _fields = ("connection",)

    def __init__(self, connection: Any) -> None:
        super().__init__(connection)

    @property
    def connection_id(self) -> str:
        """The underlying record's id."""
        return self.connection.connection_id

    @property
    def customer(self) -> str:
        """The ordering customer."""
        return self.connection.customer

    @property
    def state(self) -> ConnectionState:
        """The record's live service state."""
        return self.connection.state

    @property
    def trace_id(self) -> Optional[str]:
        """The record's trace id, for span correlation (may be None)."""
        return self.connection.trace_id


class Accepted(_ConnectionOutcome):
    """Non-terminal status: resources claimed, the order is in flight.

    Covers every post-claim, pre-settlement service state — SETTING_UP
    most importantly, but also the whole post-ACTIVE lifecycle
    (restoring, tearing down, released) when a caller polls an old
    ticket.  ``connection`` is the live record; read ``.state`` for the
    precise phase.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.connection_id}: {self.state.value}"


class Active(_ConnectionOutcome):
    """Terminal outcome: the order is carrying traffic (state UP)."""

    __slots__ = ()

    @property
    def up_at(self) -> Optional[float]:
        """Sim time the connection entered service."""
        return self.connection.up_at

    def __str__(self) -> str:
        return f"{self.connection_id}: active"


class Blocked(_ConnectionOutcome):
    """Terminal outcome: the order was refused (quota or capacity).

    The serial path, the pipeline, and the sharded network all settle
    refusals as BLOCKED records; this wrapper carries the record plus
    the one-line reason.
    """

    __slots__ = ()

    @property
    def blocked_reason(self) -> str:
        """Why the order was refused."""
        return self.connection.blocked_reason

    #: Alias so ``Blocked`` and the other refusals read uniformly.
    @property
    def reason(self) -> str:
        """Alias for :attr:`blocked_reason`."""
        return self.connection.blocked_reason

    def __str__(self) -> str:
        return f"{self.connection_id}: blocked - {self.blocked_reason}"


class QueueFull(NamedTuple):
    """Typed outcome for an order refused by intake backpressure.

    The pipeline's bounded queue was full at submission: nothing was
    recorded against the customer's quota and no connection record
    exists.  Resubmit after the backlog drains.

    Attributes:
        order_id: The refused submission's ticket id.
        capacity: The queue bound that was hit.
        reason: The one-line refusal message.
    """

    order_id: str
    capacity: int
    reason: str

    __eq__ = record_eq
    __ne__ = record_ne
    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return f"{self.order_id}: queue full - {self.reason}"


class Deferred(NamedTuple):
    """Typed outcome for an order that kept losing wavelength contention.

    Every round the pipeline processed the order, earlier orders in the
    same round won the wavelengths it needed; after the retry budget the
    order was withdrawn.  Quota was returned and no connection record
    remains — the network may well have capacity for a resubmission
    once the contending orders are in service or torn down.

    Attributes:
        order_id: The withdrawn submission's ticket id.
        rounds_deferred: How many rounds the order was retried.
        reason: The last contention failure, one line.
    """

    order_id: str
    rounds_deferred: int
    reason: str

    __eq__ = record_eq
    __ne__ = record_ne
    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return (
            f"{self.order_id}: deferred after {self.rounds_deferred} "
            f"round(s) - {self.reason}"
        )


class SetupFailed(NamedTuple):
    """Typed outcome for an order that failed entirely during setup.

    Every claimed resource was released by the compensating saga; the
    connection record is BLOCKED with ``blocked_reason`` set.

    Attributes:
        connection_id: The failed order.
        error: The equipment error that exhausted its retries.
        fault: The connection's :class:`~repro.core.service.FaultReport`
            at reporting time (None when the caller had no fault view,
            e.g. backend-level classification).
        trace_id: For correlating with the tracer's spans.
    """

    connection_id: str
    error: Exception
    fault: Optional["FaultReport"] = None
    trace_id: Optional[str] = None

    __eq__ = record_eq
    __ne__ = record_ne
    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return f"{self.connection_id}: setup failed - {self.error}"


class ServiceDegraded(NamedTuple):
    """Typed outcome for an order that came up with fewer components.

    Some wavelength/circuit components aborted during setup and were
    rolled back; the survivors carry (reduced) traffic.

    Attributes:
        connection_id: The degraded connection.
        error: The equipment error behind the first aborted component.
        fault: The connection's :class:`~repro.core.service.FaultReport`
            at reporting time (None for backend-level classification).
        trace_id: For correlating with the tracer's spans.
        up_components: How many components (lightpaths + circuits +
            EVCs) made it into service.
    """

    connection_id: str
    error: Exception
    fault: Optional["FaultReport"] = None
    trace_id: Optional[str] = None
    up_components: int = 0

    __eq__ = record_eq
    __ne__ = record_ne
    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return (
            f"{self.connection_id}: degraded "
            f"({self.up_components} component(s) up) - {self.error}"
        )


class SlaBreached(NamedTuple):
    """Typed outcome for a connection gray-degraded past its SLA.

    The SLO engine detected sustained OSNR-margin erosion (or another
    policy breach), could not remediate — no alternate path under the
    utilization gate, no maintenance window to defer into — and
    escalated the connection to DEGRADED.  Traffic still flows, but
    below the committed signal quality; the engine keeps monitoring and
    reverts the escalation automatically when the SLA recovers.

    Attributes:
        connection_id: The breached connection.
        policy: Name of the :class:`~repro.slo.monitor.SloPolicy` that fired.
        margin_db: The connection's OSNR margin at escalation time.
        cause: The degradation cause (e.g. ``"osnr-drift:NYC=CHI"``).
        trace_id: For correlating with the tracer's spans.
    """

    connection_id: str
    policy: str
    margin_db: float
    cause: str = ""
    trace_id: Optional[str] = None

    __eq__ = record_eq
    __ne__ = record_ne
    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return (
            f"{self.connection_id}: SLA breached "
            f"({self.policy}, margin {self.margin_db:.1f} dB) - {self.cause}"
        )


#: Edge-refusal codes carried by :class:`Rejected`.
REJECT_SHED = "shed"
REJECT_RATE_LIMIT = "rate-limit"
REJECT_QUOTA = "quota"


class Rejected(NamedTuple):
    """Typed outcome for an order refused at the service edge.

    The async frontend refuses work *before* intake ever sees it; a
    rejected order spent no quota and holds no queue slot.  ``code``
    is one of :data:`REJECT_SHED` (overload backpressure),
    :data:`REJECT_RATE_LIMIT` (the tenant's token bucket was empty), or
    :data:`REJECT_QUOTA` (the non-mutating edge-quota probe refused).

    Like the other plain outcomes it is a tuple, built in one call: its
    fields cannot be assigned, and it equals only another ``Rejected``
    with equal fields (never a plain tuple), hashing by those fields.

    Attributes:
        request_id: The frontend request id.
        code: The refusal class (shed / rate-limit / quota).
        reason: The one-line refusal message.
        tenant: The submitting tenant.
    """

    request_id: str
    code: str
    reason: str
    tenant: str = ""

    __eq__ = record_eq
    __ne__ = record_ne
    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return f"{self.request_id}: rejected ({self.code}) - {self.reason}"


#: The closed set of terminal order outcomes.  Matching on these eight
#: types is exhaustive for every backend (serial, pipeline, sharded)
#: and for the async frontend's edge refusals.
OrderOutcome = Union[
    Active,
    Blocked,
    QueueFull,
    Deferred,
    SetupFailed,
    ServiceDegraded,
    SlaBreached,
    Rejected,
]

#: Terminal outcome classes, for ``isinstance`` matching.
TERMINAL_OUTCOMES: Tuple[type, ...] = (
    Active,
    Blocked,
    QueueFull,
    Deferred,
    SetupFailed,
    ServiceDegraded,
    SlaBreached,
    Rejected,
)

#: Everything an order status query can return: the non-terminal
#: :class:`Accepted` plus any terminal outcome.
OrderStatus = Union[Accepted, OrderOutcome]


def classify_record(
    record: Union["Connection", "ShardOrder"],
    fault: Optional["FaultReport"] = None,
) -> OrderStatus:
    """Map a live order record onto the union.

    The one classification: :meth:`repro.pipeline.engine.RoundIntake.
    outcome` (both intake backends, and ``BodService.order_outcome``
    through it) and ``BodService.setup_outcome`` call it:

    * UP → :class:`Active`;
    * BLOCKED with a recorded ``setup_error`` → :class:`SetupFailed`
      (the compensating saga rolled the whole order back);
    * BLOCKED otherwise → :class:`Blocked`;
    * DEGRADED with a ``degradation_cause`` → :class:`SlaBreached`
      (the SLO engine escalated a gray failure it could not remediate);
    * DEGRADED with a ``setup_error`` → :class:`ServiceDegraded`;
    * anything else → :class:`Accepted` (in flight or post-lifecycle).

    A stitched :class:`~repro.shard.network.ShardOrder` is never
    DEGRADED, and the DEGRADED-only fields (``degradation_*``, the
    component lists) are read only in that state, so it maps as UP →
    Active, BLOCKED → Blocked / SetupFailed, else Accepted.
    """
    state = record.state
    setup_error = record.setup_error
    if state is ConnectionState.UP:
        return Active(record)
    if state is ConnectionState.BLOCKED:
        if setup_error is not None:
            return SetupFailed(
                connection_id=record.connection_id,
                error=setup_error,
                fault=fault,
                trace_id=record.trace_id,
            )
        return Blocked(record)
    if state is ConnectionState.DEGRADED and record.degradation_cause:
        margin = record.degradation_margin_db
        return SlaBreached(
            connection_id=record.connection_id,
            policy=record.degradation_policy,
            margin_db=margin if margin is not None else 0.0,
            cause=record.degradation_cause,
            trace_id=record.trace_id,
        )
    if state is ConnectionState.DEGRADED and setup_error is not None:
        return ServiceDegraded(
            connection_id=record.connection_id,
            error=setup_error,
            fault=fault,
            trace_id=record.trace_id,
            up_components=(
                len(record.lightpath_ids)
                + len(record.circuit_ids)
                + len(record.evc_ids)
            ),
        )
    return Accepted(record)


__all__ = [
    "Accepted",
    "Active",
    "Blocked",
    "QueueFull",
    "Deferred",
    "SetupFailed",
    "ServiceDegraded",
    "SlaBreached",
    "Rejected",
    "REJECT_SHED",
    "REJECT_RATE_LIMIT",
    "REJECT_QUOTA",
    "OrderOutcome",
    "OrderStatus",
    "TERMINAL_OUTCOMES",
    "classify_record",
]
