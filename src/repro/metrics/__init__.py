"""Measurement utilities for experiments.

* :func:`~repro.metrics.collector.summarize` — mean / percentiles of a
  sample list, used by :class:`repro.obs.registry.MetricsRegistry`
  histograms and the sweep aggregate;
* :mod:`repro.metrics.availability` — availability arithmetic;
* :mod:`repro.metrics.textchart` — a bar chart for experiment reports.
"""
