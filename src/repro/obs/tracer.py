"""Span and counter collection — the core of the observability layer.

The paper's whole evaluation (Figures 9-16) argues about *operational
counters*: sort operations, intermediate result sizes, pruned tuples.
:class:`Tracer` is the substrate those counters flow into at runtime: a
named-span timer (how long each phase of a plan execution took) plus a
named-counter accumulator (how many cache hits the IR engine saw, how many
postings it scanned).

Design constraints:

- **zero overhead when off** — every instrumented component holds
  :data:`NULL_TRACER` by default.  Its ``span`` returns one shared no-op
  context manager and ``count`` is a no-op; hot per-tuple paths
  additionally gate on ``tracer.enabled`` so a disabled run does no
  bookkeeping at all beyond one attribute check.
- **mergeable** — per-level tracers fold into a query-wide tracer with
  :meth:`Tracer.merge`, so a ``QueryTrace`` can report both the total and
  the per-level breakdown.
- **JSON-friendly** — :meth:`Tracer.snapshot` returns plain dicts, which
  is what the benchmark harness embeds in its ``--benchmark-json`` output.
"""

from __future__ import annotations

from time import perf_counter


class _NullSpan:
    """Shared no-op context manager handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing tracer every component holds by default."""

    __slots__ = ()

    enabled = False

    def span(self, name):
        return _NULL_SPAN

    def count(self, name, value=1):
        pass

    def merge(self, other):
        pass

    def snapshot(self):
        return {"spans": {}, "counters": {}}

    def __repr__(self):
        return "<NullTracer>"


NULL_TRACER = NullTracer()


class _Span:
    """One running span; accumulates into the owning tracer on exit."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer._record(self._name, perf_counter() - self._start)
        return False


class Tracer:
    """Collects named span timings and counters for one traced activity.

    ``spans`` maps a span name to ``[total_seconds, calls]``; ``counters``
    maps a counter name to an integer.  Spans nest and repeat freely — the
    same name accumulates.  Export is not the tracer's job: a finished
    query's :class:`~repro.obs.QueryTrace` serializes whole (see
    :meth:`~repro.session.Session.query`).
    """

    __slots__ = ("spans", "counters")

    enabled = True

    def __init__(self):
        self.spans = {}
        self.counters = {}

    # -- recording -----------------------------------------------------------

    def span(self, name):
        """Context manager timing one occurrence of the named span."""
        return _Span(self, name)

    def _record(self, name, seconds):
        entry = self.spans.get(name)
        if entry is None:
            self.spans[name] = [seconds, 1]
        else:
            entry[0] += seconds
            entry[1] += 1

    def count(self, name, value=1):
        """Add ``value`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def merge(self, other):
        """Fold another tracer's spans and counters into this one."""
        for name, (seconds, calls) in other.spans.items():
            entry = self.spans.get(name)
            if entry is None:
                self.spans[name] = [seconds, calls]
            else:
                entry[0] += seconds
                entry[1] += calls
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    # -- reading -------------------------------------------------------------

    def snapshot(self):
        """Plain-dict view: ``{"spans": {name: {"seconds", "calls"}},
        "counters": {name: value}}`` — safe to serialize as JSON."""
        return {
            "spans": {
                name: {"seconds": seconds, "calls": calls}
                for name, (seconds, calls) in self.spans.items()
            },
            "counters": dict(self.counters),
        }

    def __repr__(self):
        return "Tracer(spans=%d, counters=%d)" % (
            len(self.spans),
            len(self.counters),
        )
