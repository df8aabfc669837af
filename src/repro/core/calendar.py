"""Advance reservations: booking bandwidth for a future window.

Bulk replication is scheduled work — operators know tonight's backup
window in advance.  The reservation book lets a CSP book capacity for a
future interval; the controller activates the connection just before the
window opens (covering the ~1 minute setup) and tears it down at the
close.  Admission checks the *calendar*, not just the present: a booking
is refused when the terminating transponder pools would be
oversubscribed by overlapping bookings, which is the carrier's §4
planning discipline applied to the time axis.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.connection import Connection, ConnectionState
from repro.core.controller import GriphonController
from repro.errors import AdmissionError, ConfigurationError
from repro.units import GBPS

#: Activation starts this long before the window so setup completes.
DEFAULT_SETUP_LEAD_S = 120.0

#: When activation finds resources still held (e.g. the previous
#: window's teardown has not finished), retry at this interval.
ACTIVATION_RETRY_S = 60.0


class ReservationState(enum.Enum):
    """Life cycle of an advance reservation."""

    BOOKED = "booked"
    ACTIVE = "active"
    COMPLETED = "completed"
    CANCELED = "canceled"
    ACTIVATION_FAILED = "activation_failed"


@dataclass
class Reservation:
    """One booked bandwidth window.

    Attributes:
        reservation_id: Unique id.
        customer: Owning CSP.
        premises_a / premises_b: Endpoints.
        rate_bps: Booked rate.
        start / end: Window boundaries in simulation time.
        connection: The live connection once activated.
    """

    reservation_id: str
    customer: str
    premises_a: str
    premises_b: str
    rate_bps: float
    start: float
    end: float
    state: ReservationState = ReservationState.BOOKED
    connection: Optional[Connection] = None
    failure_reason: str = ""

    def overlaps(self, start: float, end: float) -> bool:
        """Whether this reservation's window intersects [start, end)."""
        return self.start < end and start < self.end


class ReservationBook:
    """Books, admits, activates, and closes advance reservations."""

    def __init__(
        self,
        controller: GriphonController,
        setup_lead_s: float = DEFAULT_SETUP_LEAD_S,
    ) -> None:
        if setup_lead_s < 0:
            raise ConfigurationError(
                f"setup lead must be >= 0, got {setup_lead_s}"
            )
        self._controller = controller
        self._setup_lead_s = setup_lead_s
        self._reservations: Dict[str, Reservation] = {}
        self._seq = itertools.count()

    # -- booking --------------------------------------------------------------

    def book(
        self,
        customer: str,
        premises_a: str,
        premises_b: str,
        rate_gbps: float,
        start: float,
        end: float,
    ) -> Reservation:
        """Book ``rate_gbps`` between two premises for [start, end).

        Raises:
            ConfigurationError: for an empty or past window.
            AdmissionError: if overlapping bookings would oversubscribe
                a terminating transponder pool.
        """
        sim = self._controller.sim
        if end <= start:
            raise ConfigurationError(
                f"window must be non-empty, got [{start}, {end})"
            )
        if start < sim.now:
            raise ConfigurationError(
                f"window starts in the past (start={start}, now={sim.now})"
            )
        self._controller.admission.profile(customer)  # customer must exist
        rate_bps = rate_gbps * GBPS
        self._check_calendar_capacity(premises_a, premises_b, rate_bps,
                                      start, end)
        reservation = Reservation(
            f"resv-{next(self._seq)}",
            customer,
            premises_a,
            premises_b,
            rate_bps,
            start,
            end,
        )
        self._reservations[reservation.reservation_id] = reservation
        activate_at = max(sim.now, start - self._setup_lead_s)
        sim.schedule_at(
            activate_at,
            self._activate,
            reservation,
            label=f"resv-activate:{reservation.reservation_id}",
        )
        sim.schedule_at(
            end,
            self._close,
            reservation,
            label=f"resv-close:{reservation.reservation_id}",
        )
        return reservation

    def cancel(self, reservation_id: str) -> Reservation:
        """Cancel a booked (not yet active) reservation.

        Raises:
            ConfigurationError: unknown id or already active/closed.
        """
        reservation = self._reservations.get(reservation_id)
        if reservation is None:
            raise ConfigurationError(f"unknown reservation {reservation_id!r}")
        if reservation.state is not ReservationState.BOOKED:
            raise ConfigurationError(
                f"{reservation_id} is {reservation.state.value}; only "
                f"booked reservations can be canceled"
            )
        reservation.state = ReservationState.CANCELED
        return reservation

    def reservations(self, customer: Optional[str] = None) -> List[Reservation]:
        """All reservations, optionally filtered by customer."""
        return [
            r
            for r in self._reservations.values()
            if customer is None or r.customer == customer
        ]

    # -- capacity math -------------------------------------------------------------

    def _check_calendar_capacity(
        self,
        premises_a: str,
        premises_b: str,
        rate_bps: float,
        start: float,
        end: float,
    ) -> None:
        """Refuse bookings that oversubscribe a terminating OT pool.

        Accounting mirrors how the controller will actually realize the
        booking: the rate decomposes into wavelength components (each
        costing one exact-rate OT at both end PoPs for the whole window)
        plus 1G circuits (each costing one ODU2 tributary slot, i.e.
        1/8 of a 10G OT).
        """
        inventory = self._controller.inventory
        for premises in (premises_a, premises_b):
            pop = inventory.pop_of(premises)
            pool = inventory.transponders.get(pop)
            # Demand per OT rate class, counting this booking plus every
            # live overlapping booking terminating at the same PoP.
            demand = self._ot_demand(rate_bps)
            for other in self._reservations.values():
                if other.state in (
                    ReservationState.CANCELED,
                    ReservationState.COMPLETED,
                    ReservationState.ACTIVATION_FAILED,
                ):
                    continue
                if not other.overlaps(start, end):
                    continue
                if pop in (
                    inventory.pop_of(other.premises_a),
                    inventory.pop_of(other.premises_b),
                ):
                    for rate, cost in self._ot_demand(other.rate_bps).items():
                        demand[rate] = demand.get(rate, 0.0) + cost
            for rate, needed in demand.items():
                capacity = pool.installed(rate) if pool else 0
                if needed > capacity:
                    raise AdmissionError(
                        f"calendar oversubscribed at {pop}: window needs "
                        f"{needed:.1f} x {rate / GBPS:g}G OTs, pool has "
                        f"{capacity}"
                    )

    def _ot_demand(self, rate_bps: float) -> Dict[float, float]:
        """OT demand by rate class for one booking."""
        from repro.core.controller import decompose_rate

        rates = self._controller.wavelength_rates()
        waves, circuits = decompose_rate(rate_bps, rates)
        demand: Dict[float, float] = {}
        for wave in waves:
            demand[wave] = demand.get(wave, 0.0) + 1.0
        if circuits:
            # Each 1G circuit is one tributary slot of a 10G OTN line.
            slot_rate = min(r for r in rates) if rates else 10 * GBPS
            demand[slot_rate] = demand.get(slot_rate, 0.0) + circuits / 8.0
        return demand

    # -- activation ------------------------------------------------------------

    def _activate(self, reservation: Reservation) -> None:
        if reservation.state is not ReservationState.BOOKED:
            return  # canceled in the meantime
        sim = self._controller.sim
        connection = self._controller.request_connection(
            reservation.customer,
            reservation.premises_a,
            reservation.premises_b,
            reservation.rate_bps,
        )
        reservation.connection = connection
        if connection.state is ConnectionState.BLOCKED:
            # Transient contention is expected at window boundaries (the
            # previous window's teardown takes ~10 s); keep retrying
            # while the window has time left.
            if sim.now + ACTIVATION_RETRY_S < reservation.end:
                sim.schedule(
                    ACTIVATION_RETRY_S,
                    self._activate,
                    reservation,
                    label=f"resv-retry:{reservation.reservation_id}",
                )
            else:
                reservation.state = ReservationState.ACTIVATION_FAILED
                reservation.failure_reason = connection.blocked_reason
            return
        reservation.state = ReservationState.ACTIVE

    def _close(self, reservation: Reservation) -> None:
        if reservation.state is not ReservationState.ACTIVE:
            return
        connection = reservation.connection
        if connection is not None and connection.state in (
            ConnectionState.UP,
            ConnectionState.DEGRADED,
            ConnectionState.FAILED,
            ConnectionState.RESTORING,
        ):
            self._controller.teardown_connection(connection.connection_id)
        reservation.state = ReservationState.COMPLETED
