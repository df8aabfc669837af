"""Sliding sim-time windows over metric samples, for burn-rate alerts.

A :class:`WindowedSeries` keeps timestamped observations in a bounded
deque and answers window questions: "what fraction of the last 120
sim-seconds of margin samples were below 2 dB?"  SLO policies use two
windows (a short one for fast reaction, a long one to reject blips),
the multi-window burn-rate structure from SRE alerting practice.

Everything is driven by the sim clock passed in by the caller; the
series never reads wall-clock time, so detection is deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Tuple

from repro.errors import ConfigurationError


class WindowedSeries:
    """Timestamped samples with sliding-window fraction queries."""

    def __init__(self, max_samples: int = 4096) -> None:
        if max_samples < 1:
            raise ConfigurationError(
                f"max_samples must be >= 1, got {max_samples}"
            )
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=max_samples)

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, now: float, value: float) -> None:
        """Append one observation at sim time ``now``.

        Timestamps must be non-decreasing (the sim clock only moves
        forward); out-of-order samples raise.
        """
        if self._samples and now < self._samples[-1][0]:
            raise ConfigurationError(
                f"samples must be time-ordered: {now} < {self._samples[-1][0]}"
            )
        self._samples.append((now, value))

    def window(self, now: float, width_s: float) -> List[float]:
        """Values observed in the half-open window ``(now - width_s, now]``."""
        if width_s <= 0:
            raise ConfigurationError(
                f"window width must be positive, got {width_s}"
            )
        cutoff = now - width_s
        result: List[float] = []
        for when, value in reversed(self._samples):
            if when <= cutoff:
                break
            result.append(value)
        result.reverse()
        return result

    def fraction(
        self, now: float, width_s: float, predicate: Callable[[float], bool]
    ) -> float:
        """Fraction of window samples satisfying ``predicate``.

        Returns 0.0 for an empty window — no evidence is treated as
        healthy, so a policy can never fire before its first sample.
        """
        values = self.window(now, width_s)
        if not values:
            return 0.0
        return sum(1 for value in values if predicate(value)) / len(values)

    def latest(self) -> Tuple[float, float]:
        """The most recent (time, value) pair.

        Raises:
            ConfigurationError: if the series is empty.
        """
        if not self._samples:
            raise ConfigurationError("series has no samples")
        return self._samples[-1]
