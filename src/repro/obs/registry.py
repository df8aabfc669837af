"""The metrics registry: counters, histograms, and polled gauges.

Aggregates what the tracer sees span by span into durable numbers: how
many orders blocked, the distribution of every EMS step's duration, the
order pipeline's queue depth.  Histograms reuse the experiment machinery's
:class:`~repro.metrics.collector.Summary` so benchmark tables and the
registry speak the same statistics.

Gauges are *pull*-style: a zero-argument callable registered once and
sampled only when a snapshot is taken.  That keeps hot paths (e.g. the
frontend's admission queue, touched on every submit) free of
per-operation metric writes — the owner keeps its own state and the
registry reads it on demand.

A histogram keeps every sample, so merged and exported percentiles are
exact, in an ``array('d')``: 8 bytes a sample, where a list of floats
costs 32 (an 8-byte slot plus a 24-byte float object).  Samples come
back as floats: ``observe`` takes a float, and an int would come back
as ``3.0``.

Where one decision bumps several counters at once — the frontend counts
each submission under its total, its priority class, its outcome and
the outcome's detail — :meth:`MetricsRegistry.inc_each` adds 1.0 to
every name of a tuple the owner built once, in one call.  The names are
created in tuple order, so :meth:`~MetricsRegistry.counters` reports
them exactly as the same names passed to :meth:`~MetricsRegistry.inc`
one by one would.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List, Mapping, Tuple, Union

from repro.metrics.collector import Summary, summarize


class MetricsRegistry:
    """Named counters + histograms + gauges for one network's lifetime."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, array] = {}
        self._gauges: Dict[str, Callable[[], Any]] = {}

    # -- counters ----------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount`` (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def inc_each(self, names: Tuple[str, ...]) -> None:
        """Increment every counter in ``names`` by 1.0, in order."""
        counters = self._counters
        for name in names:
            counters[name] = counters.get(name, 0.0) + 1.0

    def counter(self, name: str) -> float:
        """Current value of a counter (0.0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        """A copy of every counter."""
        return dict(self._counters)

    # -- histograms --------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Append one sample to histogram ``name``."""
        try:
            self._histograms[name].append(value)
        except KeyError:
            self._histograms[name] = array("d", (value,))

    def samples(self, name: str) -> List[float]:
        """A copy of a histogram's raw samples (empty if none)."""
        return list(self._histograms.get(name, ()))

    def summary(self, name: str) -> Summary:
        """Summary statistics of histogram ``name``.

        Raises:
            ValueError: if the histogram is empty or unknown.
        """
        return summarize(self._histograms.get(name, ()))

    def histograms(self) -> List[str]:
        """Names of all histograms with at least one sample."""
        return sorted(self._histograms)

    # -- gauges ------------------------------------------------------------

    def register_gauge(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a pull-style gauge sampled at snapshot time."""
        self._gauges[name] = fn

    def set_gauge(self, name: str, value: Any) -> None:
        """Set a constant-valued gauge (push style).

        For run-scoped results computed once — e.g. the wavelength count
        a re-optimization cycle reclaimed — where a pull callable would
        just close over a number anyway.  Setting the same name again
        replaces the value.
        """
        self._gauges[name] = lambda: value

    def gauge(self, name: str) -> Any:
        """Sample one gauge now.

        Raises:
            KeyError: for an unregistered gauge.
        """
        return self._gauges[name]()

    # -- merging -----------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """Counters and raw histogram samples, losslessly.

        The mergeable (and picklable, JSON-able) form of the registry:
        everything :meth:`merge` needs to reconstruct this registry's
        contribution inside another registry.  Gauges are excluded —
        they are live callables bound to per-process objects and cannot
        cross a process boundary.
        """
        return {
            "counters": dict(self._counters),
            "samples": {name: list(s) for name, s in self._histograms.items()},
        }

    def merge(self, other: Union["MetricsRegistry", Mapping[str, Any]]) -> None:
        """Fold another registry (or a :meth:`state` dict) into this one.

        Counters add; histogram samples concatenate, so summaries of the
        merged registry are exactly the summaries of the pooled samples
        — no precision is lost to pre-aggregation.  This is how the
        sweep engine combines per-worker metrics in the parent process.
        """
        state = other.state() if isinstance(other, MetricsRegistry) else other
        for name, value in state.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0.0) + value
        for name, samples in state.get("samples", {}).items():
            self._histograms.setdefault(name, array("d")).extend(samples)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything, as one JSON-serializable dict.

        Counters verbatim; histograms as summary dicts (count / mean /
        min / p50 / p95 / max); gauges sampled now.  A gauge whose
        callable raises is a bug, and its exception propagates out of
        the snapshot like any other.
        """
        histograms: Dict[str, Any] = {}
        for name, samples in self._histograms.items():
            summary = summarize(samples)
            histograms[name] = {
                "count": summary.count,
                "mean": summary.mean,
                "min": summary.minimum,
                "p50": summary.p50,
                "p95": summary.p95,
                "p99": summary.p99,
                "max": summary.maximum,
            }
        return {
            "counters": dict(self._counters),
            "histograms": histograms,
            "gauges": {name: fn() for name, fn in self._gauges.items()},
        }
