"""Tenant populations with heavy-tailed demand for frontend load tests.

A BoD carrier's customer base is not uniform: a handful of hyperscale
CSPs generate most orders while a long tail of small tenants orders
rarely.  :class:`TenantPopulation` models that with Zipf-distributed
submission weight over ``size`` tenants — tenant ``i`` (0-based rank)
submits proportionally to ``1 / (i + 1) ** zipf_s``.

Everything is lazy: sampling uses a precomputed cumulative-weight array
and :func:`bisect.bisect`, and a tenant's :class:`~repro.core.admission.
CustomerProfile` is registered with the admission ledger only on first
touch — so a one-million-tenant population costs memory proportional to
the tenants that actually submitted, which is what makes the 1M-customer
benchmark tier feasible.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import List

from repro.core.admission import AdmissionControl, CustomerProfile
from repro.errors import ConfigurationError
from repro.units import GBPS


class TenantPopulation:
    """``size`` tenants with Zipf-ranked submission weight.

    Args:
        size: Number of tenants (>= 1).
        zipf_s: Zipf exponent (> 0); larger = heavier head.  1.1 gives
            the classic few-giants-long-tail shape.
        name_prefix: Tenant names are ``f"{name_prefix}{rank}"``.
        max_connections: Per-tenant simultaneous-connection quota.
        max_total_rate_gbps: Per-tenant committed-rate quota.
    """

    def __init__(
        self,
        size: int,
        zipf_s: float = 1.1,
        name_prefix: str = "tenant-",
        max_connections: int = 4,
        max_total_rate_gbps: float = 40.0,
    ) -> None:
        if size < 1:
            raise ConfigurationError(f"population size must be >= 1, got {size}")
        if zipf_s <= 0:
            raise ConfigurationError(f"zipf_s must be > 0, got {zipf_s}")
        self.size = size
        self.zipf_s = zipf_s
        self.name_prefix = name_prefix
        self.max_connections = max_connections
        self.max_total_rate_gbps = max_total_rate_gbps
        # Cumulative Zipf weights for O(log n) rank sampling.  ~8 bytes
        # per tenant: 1M tenants cost one 8 MB array, built once.
        self._cumulative: List[float] = list(
            accumulate((index + 1) ** -zipf_s for index in range(size))
        )
        self._registered: set = set()

    def name_of(self, rank: int) -> str:
        """The tenant name at 0-based Zipf rank ``rank``."""
        if not 0 <= rank < self.size:
            raise ConfigurationError(
                f"rank {rank} outside population of {self.size}"
            )
        return f"{self.name_prefix}{rank}"

    def sample(self, rng: random.Random) -> str:
        """Draw one tenant name, Zipf-weighted, from ``rng``."""
        position = rng.random() * self._cumulative[-1]
        return self.name_of(
            min(bisect(self._cumulative, position), self.size - 1)
        )

    def profile(self, name: str) -> CustomerProfile:
        """The tenant's quota profile (uniform across the population)."""
        return CustomerProfile(
            name,
            max_connections=self.max_connections,
            max_total_rate_bps=self.max_total_rate_gbps * GBPS,
            premises=[],
        )

    def ensure_registered(
        self, admission: AdmissionControl, name: str
    ) -> None:
        """Register the tenant's profile on first touch (idempotent).

        Tracks registration locally, so a million-tenant population
        registers only the tenants that actually submit.
        """
        if name in self._registered:
            return
        admission.register_customer(self.profile(name))
        self._registered.add(name)

    @property
    def registered_count(self) -> int:
        """How many tenants have been lazily registered so far."""
        return len(self._registered)


__all__ = ["TenantPopulation"]
