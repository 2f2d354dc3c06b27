"""Observability: tracing, metrics, and the ``query_end`` hook.

``repro.obs`` has two telemetry planes with one shared principle — zero
overhead when nothing is watching:

- **Per-activity tracing** (opt-in): a :class:`Tracer` collects named span
  timings and counters for one traced query or ingest;
  :class:`QueryTrace` is the structured result surfaced by
  ``FleXPath.query(..., trace=True)``, the CLI's ``explain --analyze``,
  and the benchmark harness' per-phase JSON aggregates.
- **Process-lifetime metrics** (always-on): the :class:`MetricsRegistry`
  aggregates counters/gauges/latency histograms across every query,
  ingest, cache probe and storage operation the process serves.  One
  listener seam rides beside it: :mod:`repro.obs.events` calls
  ``on("query_end", fn)`` listeners once per answered query, and the
  built-in :class:`SlowQueryLog` is the stock listener.
"""

from repro.obs.events import off, on
from repro.obs.export import TraceSink
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.slowlog import (
    SlowQueryLog,
    disable_slow_query_log,
    enable_slow_query_log,
)
from repro.obs.trace import PHASES, QueryTrace
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PHASES",
    "QueryTrace",
    "SlowQueryLog",
    "TraceSink",
    "Tracer",
    "disable_slow_query_log",
    "enable_slow_query_log",
    "get_registry",
    "off",
    "on",
]
