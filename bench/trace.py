"""Wall-clock spans recorded from outside the program.

The traced run wraps the *public* callables of each layer on the built
instances (``recorder.wrap(frontend, "submit", "frontend.submit")``), so
the product carries no tracing code of its own yet.  A span is
``[name, start, end, parent, ident]``: wall ``perf_counter`` seconds,
the index of the span that was open when it began, and the order or
request id where the call reveals one.  Spans stay in memory and are
written out once, when the run is over.

A layer's *self time* is its spans' duration minus the part covered by
child spans, accumulated per span name as spans close -- so the self
times of everything under a root span sum exactly to that root's
duration.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, Optional


class Recorder:
    """Collects spans and per-name call counts, durations and self time."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self._child_s: Dict[int, float] = {}
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        self.durations: DefaultDict[str, List[float]] = defaultdict(list)
        #: Sim seconds from first step to completion, per generator name.
        self.sim_durations: DefaultDict[str, List[float]] = defaultdict(list)
        #: The simulator's clock, for ``sim_durations`` (set by the caller).
        self.sim_clock: Optional[Callable[[], float]] = None
        self._wrapped: List[tuple] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(index)
        self._child_s[index] = 0.0
        return index

    def end(self, index: int, ident: Optional[str] = None) -> None:
        now = time.perf_counter()
        span = self.spans[index]
        span[2] = now
        span[4] = ident
        self._open.pop()
        duration = now - span[1]
        self.self_s[span[0]] += duration - self._child_s.pop(index)
        self.durations[span[0]].append(duration)
        if span[3] is not None:
            self._child_s[span[3]] += duration

    def calls(self, name: str) -> int:
        return len(self.durations[name])

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        ident: Optional[Callable[[Any], Optional[str]]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``obj.attr`` (on the instance) with a span-recording
        wrapper.  ``ident(result)`` names the span's order; ``after(args,
        result, error)`` sees every call's outcome, for counts."""
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            index = self.begin(name)
            result = error = None
            try:
                result = inner(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.end(
                    index,
                    ident(result) if ident and error is None else None,
                )
                if after is not None:
                    after(args, result, error)

        self._install(obj, attr, traced)

    def _install(self, obj: Any, attr: str, traced: Callable) -> None:
        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def unwrap(self, obj: Any = None, attr: Optional[str] = None) -> None:
        """Remove one wrapper, or (no arguments) all of them, so nothing
        called afterwards adds spans."""
        keep = []
        for entry in self._wrapped:
            if obj is None or entry == (obj, attr):
                delattr(*entry)
            else:
                keep.append(entry)
        self._wrapped = keep

    def wrap_generator(
        self,
        obj: Any,
        attr: str,
        name: str,
        ident: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Wrap a generator-returning method so each ``next()`` step is
        one span; ``ident(*args)`` names the spans' order."""
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            generator = inner(*args, **kwargs)
            label = ident(*args) if ident else None
            clock = self.sim_clock
            started = clock() if clock else None
            while True:
                index = self.begin(name)
                try:
                    delay = next(generator)
                except StopIteration as stop:
                    if clock:
                        self.sim_durations[name].append(clock() - started)
                    return stop.value
                finally:
                    self.end(index, label)
                yield delay

        self._install(obj, attr, traced)

    # -- output ---------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        """Write every span, times as seconds since the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            json.dump(
                {**header,
                 "span_fields": ["name", "start", "end", "parent", "order"],
                 "spans": [
                     [name, round(start - origin, 7), round(end - origin, 7),
                      parent, ident]
                     for name, start, end, parent, ident in self.spans
                 ]},
                handle,
            )
