"""Customer-facing connection records.

A connection is what the CSP sees in its GUI: premises-to-premises
bandwidth at a requested rate.  Internally it maps either to one
lightpath (wavelength service), to one ODU circuit (sub-wavelength
service), or — for composite rates like the paper's 12 Gbps example —
to a bundle of both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConnectionStateError
from repro.units import format_rate


#: Kinds of claims-ledger entry (see ``Connection.claims``).
CLAIM_NTE = "nte"  # (component, kind, premises, interface)
CLAIM_NTE_SUB = "nte-sub"  # (component, kind, premises, interface, sub)
CLAIM_FXC = "fxc"  # (component, kind, site, port) -- one port names the pair
CLAIM_OTN_PORT = "otn-port"  # (component, kind, node, client port)


class ConnectionKind(enum.Enum):
    """Which layer(s) realize the connection."""

    WAVELENGTH = "wavelength"
    SUBWAVELENGTH = "sub-wavelength"
    COMPOSITE = "composite"
    PACKET = "packet-evc"


class ConnectionState(enum.Enum):
    """Customer-visible life cycle of a connection."""

    REQUESTED = "requested"
    SETTING_UP = "setting_up"
    UP = "up"
    DEGRADED = "degraded"
    FAILED = "failed"
    RESTORING = "restoring"
    TEARING_DOWN = "tearing_down"
    RELEASED = "released"
    BLOCKED = "blocked"


_ALLOWED = {
    ConnectionState.REQUESTED: {
        ConnectionState.SETTING_UP,
        ConnectionState.BLOCKED,
    },
    ConnectionState.SETTING_UP: {
        ConnectionState.UP,
        ConnectionState.DEGRADED,
        ConnectionState.BLOCKED,
    },
    ConnectionState.UP: {
        ConnectionState.DEGRADED,
        ConnectionState.FAILED,
        ConnectionState.RESTORING,
        ConnectionState.TEARING_DOWN,
    },
    ConnectionState.DEGRADED: {
        ConnectionState.UP,
        ConnectionState.FAILED,
        ConnectionState.RESTORING,
        ConnectionState.TEARING_DOWN,
    },
    ConnectionState.FAILED: {
        ConnectionState.RESTORING,
        ConnectionState.UP,
        ConnectionState.TEARING_DOWN,
    },
    ConnectionState.RESTORING: {
        ConnectionState.UP,
        ConnectionState.FAILED,
        ConnectionState.TEARING_DOWN,
    },
    ConnectionState.TEARING_DOWN: {ConnectionState.RELEASED},
    ConnectionState.RELEASED: set(),
    ConnectionState.BLOCKED: set(),
}


@dataclass
class Connection:
    """One customer connection.

    Attributes:
        connection_id: Unique id shown in the customer GUI.
        customer: Owning CSP name.
        premises_a: Source data-center premises.
        premises_b: Destination data-center premises.
        rate_bps: Committed rate.
        kind: Realizing layer(s).
        lightpath_ids: Underlying lightpaths (wavelength / composite).
        circuit_ids: Underlying ODU circuits (sub-wavelength / composite).
        evc_ids: Underlying Ethernet virtual circuits (packet services
            below 1 Gbps, per Fig. 2's service categorization).
        requested_at / up_at / released_at: Simulation timestamps.
        outage_started_at: Set while the connection is failed/restoring.
        total_outage_s: Accumulated unavailable seconds.
        blocked_reason: Human-readable reason when state is BLOCKED.
    """

    connection_id: str
    customer: str
    premises_a: str
    premises_b: str
    rate_bps: float
    kind: ConnectionKind
    lightpath_ids: List[str] = field(default_factory=list)
    circuit_ids: List[str] = field(default_factory=list)
    evc_ids: List[str] = field(default_factory=list)
    state: ConnectionState = ConnectionState.REQUESTED
    requested_at: Optional[float] = None
    up_at: Optional[float] = None
    released_at: Optional[float] = None
    outage_started_at: Optional[float] = None
    total_outage_s: float = 0.0
    blocked_reason: str = ""
    #: The claims ledger: one ``(component, kind, ...)`` entry per NTE
    #: interface / sub-channel, FXC pair and OTN client port the
    #: connection holds, in claim order (layouts beside the ``CLAIM_*``
    #: kinds).  ``component`` is the lightpath, circuit or EVC id the
    #: claim serves, or ``""``; the controller gives entries back.
    claims: List[tuple] = field(default_factory=list)
    #: Trace id of the order's root span (None when tracing is off).
    trace_id: Optional[str] = None
    #: The EquipmentError that aborted (part of) setup; None on the
    #: happy path.  Set alongside DEGRADED / setup-failed BLOCKED.
    setup_error: Optional[Exception] = None
    #: Why the connection is gray-degraded (e.g. ``"osnr-drift:NYC=CHI"``).
    #: Set by the SLO engine when it escalates an SLA breach it could not
    #: remediate; cleared when the SLA recovers.  Empty for hard faults.
    degradation_cause: str = ""
    #: OSNR margin (dB) recorded at escalation time, alongside
    #: :attr:`degradation_cause`.
    degradation_margin_db: Optional[float] = None
    #: Name of the SLO policy whose breach caused the escalation.
    degradation_policy: str = ""

    @property
    def setup_duration(self) -> Optional[float]:
        """Seconds from request to service, or None while pending."""
        if self.requested_at is None or self.up_at is None:
            return None
        return self.up_at - self.requested_at

    def transition(self, new_state: ConnectionState) -> None:
        """Move the state machine to ``new_state``.

        Raises:
            ConnectionStateError: for a disallowed transition.
        """
        if new_state not in _ALLOWED[self.state]:
            raise ConnectionStateError(
                f"connection {self.connection_id}: cannot go "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def begin_outage(self, now: float) -> None:
        """Record the start of an unavailability period."""
        if self.outage_started_at is None:
            self.outage_started_at = now

    def end_outage(self, now: float) -> None:
        """Close the current unavailability period and accumulate it."""
        if self.outage_started_at is not None:
            self.total_outage_s += now - self.outage_started_at
            self.outage_started_at = None

    def __str__(self) -> str:
        return (
            f"{self.connection_id} [{self.state.value}] "
            f"{self.premises_a} <-> {self.premises_b} "
            f"@ {format_rate(self.rate_bps)} ({self.kind.value})"
        )
