"""Summary statistics of a sample series."""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence

from repro import record_eq, record_ne


class Summary(NamedTuple):
    """Summary statistics of a sample series."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    __eq__ = record_eq
    __ne__ = record_ne
    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.4g} min={self.minimum:.4g} "
            f"p50={self.p50:.4g} p95={self.p95:.4g} p99={self.p99:.4g} "
            f"max={self.maximum:.4g}"
        )


def _percentile(ordered: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if not ordered:
        raise ValueError("cannot take a percentile of no samples")
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    weight = position - low
    value = ordered[low] * (1 - weight) + ordered[high] * weight
    # Clamp: float rounding in the interpolation must never push the
    # result past the neighboring order statistics.
    return min(max(value, ordered[low]), ordered[high])


def summarize(samples: Sequence[float]) -> Summary:
    """Summary statistics of ``samples``.

    Raises:
        ValueError: for no samples.
    """
    if not samples:
        raise ValueError("cannot summarize zero samples")
    ordered = sorted(samples)
    return Summary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        minimum=ordered[0],
        maximum=ordered[-1],
        p50=_percentile(ordered, 0.50),
        p95=_percentile(ordered, 0.95),
        p99=_percentile(ordered, 0.99),
    )
