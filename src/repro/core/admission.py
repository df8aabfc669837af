"""Admission control: customers, quotas, and isolation.

The carrier "should also ensure isolation of services across different
CSPs" while re-using a shared pool of resources (paper §4).  Each
customer gets a profile with rate and connection-count quotas; admission
rejects orders that would exceed them, independent of whether the
network could physically carry the connection — quota rejections are
policy, resource blocking is capacity.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.errors import AdmissionError
from repro.units import GBPS, format_rate


class CustomerProfile:
    """One cloud-service-provider customer.

    Attributes:
        name: Customer identifier.
        max_connections: Cap on simultaneous connections.
        max_total_rate_bps: Cap on the sum of committed rates.
        premises: Premises this customer may order between; empty means
            any premises (no restriction).
    """

    __slots__ = ("name", "max_connections", "max_total_rate_bps", "premises")

    def __init__(
        self,
        name: str,
        max_connections: int = 16,
        max_total_rate_bps: float = 400 * GBPS,
        premises: Optional[List[str]] = None,
    ) -> None:
        self.name = name
        self.max_connections = max_connections
        self.max_total_rate_bps = max_total_rate_bps
        self.premises = [] if premises is None else premises


class AdmissionControl:
    """Tracks per-customer usage against profiles."""

    def __init__(self) -> None:
        self._profiles: Dict[str, CustomerProfile] = {}
        self._active_connections: Dict[str, int] = {}
        self._active_rate: Dict[str, float] = {}

    def register_customer(self, profile: CustomerProfile) -> None:
        """Add a customer.

        Raises:
            AdmissionError: if the name is already registered.
        """
        if profile.name in self._profiles:
            raise AdmissionError(f"customer {profile.name!r} already registered")
        self._profiles[profile.name] = profile
        self._active_connections[profile.name] = 0
        self._active_rate[profile.name] = 0.0

    def profile(self, customer: str) -> CustomerProfile:
        """Look up a customer's profile.

        Raises:
            AdmissionError: for an unknown customer.
        """
        try:
            return self._profiles[customer]
        except KeyError:
            raise AdmissionError(f"unknown customer {customer!r}") from None

    def customers(self) -> List[str]:
        """All registered customer names."""
        return sorted(self._profiles)

    def check(
        self, customer: str, premises_a: str, premises_b: str, rate_bps: float
    ) -> Optional[str]:
        """Why this order would be refused, or ``None`` if it fits.

        Non-mutating: nothing is recorded.  The order pipeline and load
        studies use this to probe admissibility without spending quota;
        :meth:`admit` is the same checks plus the ledger update.  Both
        refuse a rate that is not a positive finite number.

        Raises:
            AdmissionError: for an unknown customer (that is a caller
                bug, not a quota outcome).
        """
        profile = self.profile(customer)
        if not (rate_bps > 0 and math.isfinite(rate_bps)):
            return f"rate must be a positive finite number, got {rate_bps!r}"
        if profile.premises:
            for premises in (premises_a, premises_b):
                if premises not in profile.premises:
                    return (
                        f"customer {customer!r} has no access at {premises!r}"
                    )
        if self._active_connections[customer] + 1 > profile.max_connections:
            return (
                f"customer {customer!r} is at its connection quota "
                f"({profile.max_connections})"
            )
        if self._active_rate[customer] + rate_bps > profile.max_total_rate_bps:
            return (
                f"customer {customer!r} would exceed its rate quota "
                f"({format_rate(profile.max_total_rate_bps)})"
            )
        return None

    def admit(
        self, customer: str, premises_a: str, premises_b: str, rate_bps: float
    ) -> None:
        """Check and record an order against the customer's quotas.

        Raises:
            AdmissionError: when a quota or premises restriction is hit.
        """
        reason = self.check(customer, premises_a, premises_b, rate_bps)
        if reason is not None:
            raise AdmissionError(reason)
        self._active_connections[customer] += 1
        self._active_rate[customer] += rate_bps

    def release(self, customer: str, rate_bps: float) -> None:
        """Return quota after a connection ends.

        Raises:
            AdmissionError: if releasing more than is held.
        """
        self.profile(customer)
        if self._active_connections[customer] < 1:
            raise AdmissionError(
                f"customer {customer!r} has no active connections to release"
            )
        if self._active_rate[customer] - rate_bps < -1e-6:
            raise AdmissionError(
                f"customer {customer!r} releasing more rate than held"
            )
        self._active_connections[customer] -= 1
        self._active_rate[customer] = max(
            0.0, self._active_rate[customer] - rate_bps
        )

    def usage(self, customer: str) -> Dict[str, float]:
        """Current usage snapshot for a customer."""
        self.profile(customer)
        return {
            "connections": self._active_connections[customer],
            "rate_bps": self._active_rate[customer],
        }
