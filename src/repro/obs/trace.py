"""Sim-time-aware tracing: nested spans over the connection lifecycle.

The paper's headline evidence is *timing* — 60–70 s wavelength setup,
~10 s teardown, Table 2's per-phase dependence on path length — so the
reproduction needs to see where the seconds go *inside* a workflow, not
just end to end.  A :class:`Tracer` produces :class:`Span` records
(name, tags, sim-time start/end, parent id) for every order → RWA plan
→ EMS step → verify phase, plus restoration and bridge-and-roll.

Design constraints, in order:

* **Off by default, near-zero cost when off.**  A disabled tracer's
  :meth:`Tracer.span` returns the shared :data:`NULL_SPAN` after a
  single flag check; nothing is allocated or recorded.
* **Sim-time, not wall-clock.**  The tracer reads time from a clock
  callable (normally :meth:`repro.sim.kernel.Simulator.time_source`),
  so span durations are the simulated seconds the paper measures.
* **Explicit parenting.**  Workflows are generators interleaved by the
  event kernel, so there is deliberately *no* implicit "current span"
  stack — a suspended workflow must never adopt another process's
  spans.  Children are created via ``parent=`` (or ``Span.child``),
  which is unambiguous under any interleaving.

Spans work as context managers, including across generator ``yield``
statements: the ``with`` block opens when the workflow reaches it and
closes (stamping the end time) when the workflow resumes past it, which
is exactly the simulated interval the enclosed steps took.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional


class Span:
    """One traced interval: name, tags, sim start/end, tree links."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "tags",
                 "start", "end", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: float,
        tags: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.tags = tags

    # -- lifecycle ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has stamped the end time."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated seconds covered; 0.0 while still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_tag(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one tag; returns self for chaining."""
        self.tags[key] = value
        return self

    def child(self, name: str, **tags: Any) -> "Span":
        """Start a child span (same trace) at the current sim time."""
        return self._tracer.span(name, parent=self, **tags)

    def finish(self, end: Optional[float] = None) -> "Span":
        """Stamp the end time (now, unless given); idempotent."""
        if self.end is None:
            self.end = self._tracer.now() if end is None else end
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and "error" not in self.tags:
            self.tags["error"] = exc_type.__name__
        self.finish()

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable record of this span."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "tags": dict(self.tags),
        }


class _NullSpan:
    """The do-nothing span a disabled tracer hands out.

    It satisfies the whole :class:`Span` surface so instrumented code
    never branches on whether tracing is on.
    """

    __slots__ = ()
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    name = ""
    start = 0.0
    end: Optional[float] = 0.0
    tags: Dict[str, Any] = {}
    finished = True
    duration = 0.0

    def set_tag(self, key: str, value: Any) -> "_NullSpan":
        """No-op; returns self."""
        return self

    def child(self, name: str, **tags: Any) -> "_NullSpan":
        """No-op; returns self."""
        return self

    def finish(self, end: Optional[float] = None) -> "_NullSpan":
        """No-op; returns self."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def to_dict(self) -> Dict[str, Any]:
        """An empty record (never exported)."""
        return {}


#: The shared inert span returned whenever tracing is disabled.
NULL_SPAN = _NullSpan()


class Tracer:
    """Produces and collects :class:`Span` records against a sim clock.

    Args:
        clock: Zero-argument callable returning the current simulation
            time; defaults to a constant 0.0 (fine for a disabled or
            clock-less tracer).
        enabled: Start enabled?  Default False — tracing is opt-in and
            the disabled fast path is a single flag check.
    """

    __slots__ = ("_clock", "_enabled", "_spans", "_span_seq", "_trace_seq")

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = False,
    ) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._enabled = bool(enabled)
        self._spans: List[Span] = []
        self._span_seq = 0
        self._trace_seq = 0

    # -- switches ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether spans are being recorded."""
        return self._enabled

    def enable(self) -> None:
        """Start recording spans."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording; already-collected spans are kept."""
        self._enabled = False

    def now(self) -> float:
        """The clock's current (simulation) time."""
        return self._clock()

    # -- span creation -----------------------------------------------------

    def span(self, name: str, parent: Optional[Span] = None,
             trace_id: Optional[str] = None, **tags: Any) -> Span:
        """Open a span starting now; returns :data:`NULL_SPAN` when off.

        Args:
            name: Phase name, dotted by convention (``ems.tune``).
            parent: Span to nest under; ``None`` starts a new trace root.
            trace_id: Adopt an existing trace id (used to correlate
                restoration/bridge-and-roll activity with the original
                connection's trace); ignored when ``parent`` is given.
            tags: Arbitrary JSON-serializable annotations.
        """
        if not self._enabled:
            return NULL_SPAN  # type: ignore[return-value]
        if parent is not None and parent.span_id is not None:
            tid: str = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            parent_id = None
            if trace_id is not None:
                tid = trace_id
            else:
                tid = f"t{self._trace_seq}"
                self._trace_seq += 1
        span = Span(
            self, tid, f"s{self._span_seq}", parent_id, name,
            self._clock(), tags,
        )
        self._span_seq += 1
        self._spans.append(span)
        return span

    def event(self, name: str, parent: Optional[Span] = None,
              trace_id: Optional[str] = None, **tags: Any) -> Span:
        """Record an instantaneous point event (zero-duration span)."""
        return self.span(name, parent=parent, trace_id=trace_id,
                         **tags).finish()

    def record(self, name: str, start: float, end: float,
               parent: Optional[Span] = None, trace_id: Optional[str] = None,
               **tags: Any) -> Span:
        """Record a completed interval with explicit timestamps.

        Used for activities whose duration is computed up front and
        scheduled (e.g. OTN shared-mesh switch time) rather than driven
        step by step through a workflow.
        """
        span = self.span(name, parent=parent, trace_id=trace_id, **tags)
        if span.span_id is not None:
            span.start = start
            span.finish(end)
        return span

    # -- queries -----------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """All recorded spans, optionally filtered by exact name."""
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def roots(self) -> List[Span]:
        """Spans with no parent (one per trace start)."""
        return [s for s in self._spans if s.parent_id is None]

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of ``span``, in start order."""
        return [s for s in self._spans if s.parent_id == span.span_id]

    def by_trace(self, trace_id: str) -> List[Span]:
        """Every span belonging to one trace, in start order."""
        return [s for s in self._spans if s.trace_id == trace_id]

    def clear(self) -> None:
        """Forget all recorded spans (id counters keep advancing)."""
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    # -- export ------------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All spans as JSON-serializable dicts, in start order."""
        return [span.to_dict() for span in self._spans]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The whole trace as a JSON array string."""
        return json.dumps(self.to_dicts(), indent=indent)

    def dump(self, path: str, indent: Optional[int] = 2) -> None:
        """Write the JSON trace to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(indent=indent))
