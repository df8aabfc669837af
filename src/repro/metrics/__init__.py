"""Measurement utilities for experiments.

* :func:`~repro.metrics.collector.summarize` — mean / percentiles of a
  sample list, used by :class:`repro.obs.MetricsRegistry` histograms and
  the sweep aggregate;
* :mod:`repro.metrics.availability` — availability arithmetic;
* :mod:`repro.metrics.textchart` — a bar chart for experiment reports.
"""

from repro.metrics.availability import (
    availability_from_mtbf_mttr,
    downtime_minutes_per_year,
    fleet_availability,
    measured_availability,
    nines,
)
from repro.metrics.collector import Summary, summarize
from repro.metrics.textchart import bar_chart

__all__ = [
    "availability_from_mtbf_mttr",
    "downtime_minutes_per_year",
    "fleet_availability",
    "measured_availability",
    "nines",
    "Summary",
    "summarize",
    "bar_chart",
]
