"""Observability: sim-time tracing and metrics for the connection lifecycle.

* :mod:`repro.obs.trace` — :class:`~repro.obs.trace.Tracer` producing
  nested :class:`~repro.obs.trace.Span` records (sim-time start/end,
  tags, parent links) over every order → RWA plan → EMS step → verify
  phase, plus restoration and bridge-and-roll; JSON trace export.
* :mod:`repro.obs.registry` — :class:`~repro.obs.registry.MetricsRegistry`
  aggregating counters, duration histograms (via
  :class:`~repro.metrics.collector.Summary`), and pull-style gauges
  such as the order pipeline's queue depth.

Tracing is **off by default**; a disabled tracer costs one flag check
per instrumentation point.  Enable it per network::

    net = build_griphon_testbed(tracing=True)
    ...
    net.tracer.dump("trace.json")
    print(net.metrics.snapshot())
"""
