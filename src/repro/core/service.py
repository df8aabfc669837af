"""The per-customer bandwidth-on-demand service API.

This is the programmatic face of the paper's "Customer GUI": each CSP
gets a handle scoped to its own connections, with methods for connection
management (set up / tear down on demand) and simple fault visibility.
The complexity of the GRIPhoN network — access pipes, carrier equipment,
network layers, the controller — stays hidden (paper §2.2).

The fault and usage views return typed records (:class:`FaultReport`,
:class:`Usage`) rather than bare strings and dicts; both stay
compatible with their old shapes (``str(report)`` is the GUI line,
``usage["connections"]`` still indexes).

Order outcomes (``QueueFull``, ``Deferred``, ``SetupFailed``,
``ServiceDegraded``) live in :mod:`repro.api` as part of the one typed
:data:`~repro.api.OrderOutcome` union.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro import api
from repro.core.connection import Connection, ConnectionKind, ConnectionState
from repro.core.controller import GriphonController
from repro.errors import AdmissionError, ConfigurationError, ResourceError
from repro.pipeline.engine import OrderTicket
from repro.units import GBPS

@dataclass(frozen=True)
class FaultReport:
    """Structured fault status for one connection (GUI detail pane).

    Attributes:
        connection_id: The connection reported on.
        state: Its customer-visible state.
        localized_links: Failed fiber links the outage was localized to
            (empty when in service or when localization found nothing).
        action: What the carrier is doing about it (e.g. ``"restoration
            in progress"``); empty when nothing is wrong.
        trace_id: The connection's trace id, for correlating this report
            with the tracer's spans (None when tracing is off).
        blocked_reason: Why the order was blocked, for BLOCKED records.
        degradation_cause: The gray-failure cause when the SLO engine
            escalated this connection (e.g. ``"osnr-drift:NYC=CHI"``);
            empty for hard faults, which renders the classic outage line.
        osnr_margin_db: The connection's current OSNR margin (None for
            records with no live lightpath).
    """

    connection_id: str
    state: ConnectionState
    localized_links: Tuple[Tuple[str, str], ...] = ()
    action: str = ""
    trace_id: Optional[str] = None
    blocked_reason: str = ""
    failed_element: str = ""
    failed_command: str = ""
    degradation_cause: str = ""
    osnr_margin_db: Optional[float] = None

    def __str__(self) -> str:
        if self.state is ConnectionState.UP:
            return f"{self.connection_id}: in service"
        if self.state is ConnectionState.BLOCKED:
            return f"{self.connection_id}: blocked - {self.blocked_reason}"
        if self.state in (ConnectionState.FAILED, ConnectionState.RESTORING):
            where = (
                ", ".join(f"{a}={b}" for a, b in self.localized_links)
                or "unknown location"
            )
            return (
                f"{self.connection_id}: outage localized to [{where}]; "
                f"{self.action}"
            )
        if self.state is ConnectionState.DEGRADED and self.degradation_cause:
            margin = (
                f"{self.osnr_margin_db:.1f} dB margin"
                if self.osnr_margin_db is not None
                else "margin unknown"
            )
            return (
                f"{self.connection_id}: GRAY DEGRADED - "
                f"{self.degradation_cause} ({margin})"
            )
        if self.state is ConnectionState.DEGRADED and self.failed_element:
            return (
                f"{self.connection_id}: degraded - "
                f"{self.failed_element} setup failed"
            )
        return f"{self.connection_id}: {self.state.value}"

    def __contains__(self, item: str) -> bool:
        # Callers historically substring-matched the one-line report;
        # keep ``"outage" in report`` working on the typed record.
        return item in str(self)


@dataclass(frozen=True)
class UsageLimits:
    """A customer's quota ceilings, in GUI units (Gbps)."""

    max_connections: int
    max_total_rate_gbps: float


@dataclass(frozen=True)
class Usage(Mapping):
    """A customer's current quota usage.

    Indexes like the dict it replaced (``usage["connections"]``,
    ``usage["rate_bps"]``) and additionally exposes the GUI-unit rate
    and the quota ceilings as typed fields.
    """

    connections: int
    committed_gbps: float
    limits: UsageLimits

    _KEYS = ("connections", "committed_gbps", "rate_bps", "limits")

    @property
    def rate_bps(self) -> float:
        """The committed rate in bps (the admission ledger's unit)."""
        return self.committed_gbps * GBPS

    def __getitem__(self, key: str):
        if key not in self._KEYS:
            raise KeyError(key)
        return getattr(self, key)

    def __iter__(self) -> Iterator[str]:
        return iter(self._KEYS)

    def __len__(self) -> int:
        return len(self._KEYS)


class BodService:
    """One customer's view of the GRIPhoN BoD service."""

    def __init__(self, controller: GriphonController, customer: str) -> None:
        # Validates the customer exists.
        controller.admission.profile(customer)
        self._controller = controller
        self.customer = customer

    # -- connection management ---------------------------------------------------

    def request_connection(
        self,
        premises_a: str,
        premises_b: str,
        rate_gbps: float,
        kind: Optional[ConnectionKind] = None,
    ) -> Connection:
        """Order a connection between two of this customer's premises.

        Args:
            rate_gbps: Committed rate in Gbps (the GUI's unit).
            kind: Force a wavelength or sub-wavelength realization;
                ``None`` lets the controller decompose the rate.

        Raises:
            AdmissionError: for a rate that is not a positive, finite
                number of Gbps (checked here, in the GUI's unit, so the
                customer never sees a bps-denominated internal error).
        """
        self._validate_rate(rate_gbps)
        return self._controller.request_connection(
            self.customer, premises_a, premises_b, rate_gbps * GBPS, kind
        )

    def submit_connection(
        self,
        premises_a: str,
        premises_b: str,
        rate_gbps: float,
        kind: Optional[ConnectionKind] = None,
    ) -> OrderTicket:
        """Queue an order on the concurrent intake pipeline.

        Unlike :meth:`request_connection` — which plans and claims the
        order synchronously — this enqueues the order and returns an
        :class:`~repro.pipeline.engine.OrderTicket` at once; the pipeline
        processes it in a scheduling round (run the simulator).  Follow
        the ticket with :meth:`order_outcome`.

        Raises:
            AdmissionError: for an invalid ``rate_gbps`` (same check as
                :meth:`request_connection`).
            ConfigurationError: when the network was built without a
                pipeline (``GriphonNetwork.enable_pipeline()``).
        """
        self._validate_rate(rate_gbps)
        return self._pipeline().submit(
            self.customer, premises_a, premises_b, rate_gbps * GBPS, kind
        )

    def order_outcome(
        self, ticket: OrderTicket
    ) -> Optional["api.OrderStatus"]:
        """What became of a submitted order, as a value from the union.

        Returns ``None`` while the order is still queued, otherwise a
        member of :data:`repro.api.OrderStatus`: :class:`~repro.api.Active`
        / :class:`~repro.api.Blocked` / :class:`~repro.api.Accepted`
        wrapping the processed :class:`Connection` record (attribute
        access like ``.state`` and ``.blocked_reason`` delegates to the
        record), :class:`~repro.api.SetupFailed` /
        :class:`~repro.api.ServiceDegraded` when the setup saga rolled
        back, :class:`~repro.api.QueueFull` for intake backpressure, and
        :class:`~repro.api.Deferred` when the order was withdrawn after
        losing wavelength contention ``max_defers`` rounds in a row.
        """
        fault = None
        if ticket.connection_id is not None:
            connection = self._own(ticket.connection_id)
            if connection.setup_error is not None:
                fault = self.fault_report(connection.connection_id)
        return self._pipeline().outcome(ticket, fault=fault)

    def _validate_rate(self, rate_gbps: float) -> None:
        """GUI-unit rate validation shared by request and submit."""
        if not isinstance(rate_gbps, (int, float)) or isinstance(
            rate_gbps, bool
        ):
            raise AdmissionError(
                f"rate_gbps must be a number, got {type(rate_gbps).__name__}"
            )
        if not math.isfinite(rate_gbps) or rate_gbps <= 0:
            raise AdmissionError(
                f"rate_gbps must be positive and finite, got {rate_gbps!r}"
            )

    def teardown_connection(self, connection_id: str) -> Connection:
        """Tear down one of this customer's connections.

        Raises:
            ResourceError: if the connection belongs to another customer
                (isolation: customers cannot see or touch each other's
                connections).
        """
        connection = self._own(connection_id)
        return self._controller.teardown_connection(connection.connection_id)

    def connections(self) -> List[Connection]:
        """All of this customer's connections, oldest first."""
        return self._controller.connections_of(self.customer)

    def connection(self, connection_id: str) -> Connection:
        """One of this customer's connections.

        Raises:
            ResourceError: unknown id or another customer's connection.
        """
        return self._own(connection_id)

    # -- fault visibility ----------------------------------------------------------

    def impacted_connections(self) -> List[Connection]:
        """Connections currently failed, degraded, or restoring."""
        impacted_states = (
            ConnectionState.FAILED,
            ConnectionState.DEGRADED,
            ConnectionState.RESTORING,
        )
        return [c for c in self.connections() if c.state in impacted_states]

    def fault_report(self, connection_id: str) -> FaultReport:
        """The fault status of a connection, as a typed record.

        ``str(report)`` is the GUI's one-line detail pane.
        """
        connection = self._own(connection_id)
        localized: Tuple[Tuple[str, str], ...] = ()
        action = ""
        if connection.state in (
            ConnectionState.FAILED,
            ConnectionState.RESTORING,
        ):
            localized = tuple(
                self._controller.inventory.plant.failed_links()
            )
            action = (
                "restoration in progress"
                if connection.state is ConnectionState.RESTORING
                else "awaiting restoration"
            )
        return FaultReport(
            connection_id=connection.connection_id,
            state=connection.state,
            localized_links=localized,
            action=action,
            trace_id=connection.trace_id,
            blocked_reason=connection.blocked_reason,
            failed_element=getattr(connection.setup_error, "element", "") or "",
            failed_command=getattr(connection.setup_error, "command", "") or "",
            degradation_cause=connection.degradation_cause,
            osnr_margin_db=self._controller.connection_osnr_margin_db(
                connection.connection_id
            ),
        )

    def setup_outcome(
        self, connection_id: str
    ) -> Optional["api.SetupFailed | api.ServiceDegraded"]:
        """What the resilient setup saga did to this order, if anything.

        Returns ``None`` for orders that set up cleanly (or are still in
        flight), :class:`~repro.api.ServiceDegraded` when some
        components aborted but the connection carries traffic, and
        :class:`~repro.api.SetupFailed` when the whole order was rolled
        back.
        """
        connection = self._own(connection_id)
        if connection.setup_error is None:
            return None
        outcome = api.classify_record(
            connection, fault=self.fault_report(connection_id)
        )
        if isinstance(outcome, (api.SetupFailed, api.ServiceDegraded)):
            return outcome
        return None

    def usage(self) -> Usage:
        """Current quota usage (connections and committed rate)."""
        raw = self._controller.admission.usage(self.customer)
        profile = self._controller.admission.profile(self.customer)
        return Usage(
            connections=int(raw["connections"]),
            committed_gbps=raw["rate_bps"] / GBPS,
            limits=UsageLimits(
                max_connections=profile.max_connections,
                max_total_rate_gbps=profile.max_total_rate_bps / GBPS,
            ),
        )

    # -- internals ------------------------------------------------------------

    def _pipeline(self):
        """The controller's order pipeline.

        Raises:
            ConfigurationError: when the network was built without one.
        """
        pipeline = self._controller.pipeline
        if pipeline is None:
            raise ConfigurationError(
                "no order pipeline attached - call "
                "GriphonNetwork.enable_pipeline() (or use request_connection)"
            )
        return pipeline

    def _own(self, connection_id: str) -> Connection:
        connection = self._controller.connection(connection_id)
        if connection.customer != self.customer:
            raise ResourceError(
                f"connection {connection_id!r} does not belong to "
                f"{self.customer!r}"
            )
        return connection
