"""Per-tenant token buckets on the simulation clock.

The frontend's first edge gate: each tenant owns a bucket refilled
lazily from the sim clock (no periodic refill events — a million idle
tenants cost nothing).  A submission takes one token; an empty bucket
means the tenant is above its sustained request rate and the request is
refused with :data:`repro.api.REJECT_RATE_LIMIT` before any queue or
quota state is touched.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError


class TokenBucket:
    """One tenant's request-rate budget.

    Args:
        rate: Sustained tokens per sim-second (> 0).
        burst: Bucket capacity — the largest instantaneous burst (>= 1).
        now: Sim time the bucket is created (starts full).
    """

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0:
            raise ConfigurationError(f"bucket rate must be > 0, got {rate}")
        if burst < 1:
            raise ConfigurationError(f"bucket burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated_at = now

    def _refill(self, now: float) -> None:
        elapsed = now - self.updated_at
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            self.updated_at = now

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; False means throttle."""
        self._refill(now)
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False

    def available(self, now: float) -> float:
        """Tokens available right now (after lazy refill)."""
        self._refill(now)
        return self.tokens


class BucketSet:
    """Lazily materialized per-tenant buckets with shared defaults.

    Buckets are created on a tenant's first submission, so memory
    scales with *active* tenants, not population size — the property
    that makes the 1M-customer benchmark feasible.
    """

    __slots__ = ("rate", "burst", "_buckets")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self._buckets: Dict[str, TokenBucket] = {}

    def try_take(self, tenant: str, now: float) -> bool:
        """Take one token from the tenant's bucket (created full on
        first touch).

        :meth:`TokenBucket.try_take`'s refill and take, inlined: this
        runs once per submission, so the lookup, the lazy create, the
        refill and the take share one frame.
        """
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                self.rate, self.burst, now
            )
        elapsed = now - bucket.updated_at
        if elapsed > 0:
            bucket.tokens = min(bucket.burst, bucket.tokens + elapsed * bucket.rate)
            bucket.updated_at = now
        if bucket.tokens >= 1.0:
            bucket.tokens -= 1.0
            return True
        return False

    def __len__(self) -> int:
        return len(self._buckets)
