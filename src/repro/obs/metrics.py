"""Process-wide metrics: counters, gauges, and latency histograms.

Where :class:`~repro.obs.tracer.Tracer` observes *one* activity (a single
traced query, a single ingest) and is deliberately unsynchronized,
:class:`MetricsRegistry` is the *always-on, process-lifetime* sink every
instrumented seam reports into: the engine facade counts queries and
errors, the corpus counts ingested documents, and each top-K query folds
in, once at its end, its levels and wall time, every plan's
:class:`~repro.plans.executor.ExecutionStats`, and what its sources' IR
engines and evaluation caches counted since their last fold
(:meth:`MetricsRegistry.fold_lifetime`).  One registry, one lock — cheap
enough to leave on in production, inspectable at any moment.

Three metric kinds, in the Prometheus vocabulary:

- **counter** — a monotonically increasing integer (``inc``);
- **gauge** — a point-in-time value that can go up or down (``set_gauge``);
- **histogram** — an observation distribution over *log-scale buckets*
  (``observe``); bucket upper bounds grow geometrically from 100 µs, so
  the same 16 buckets resolve both a 200 µs point lookup and a 30 s batch
  run.

Exposition is dual: :meth:`MetricsRegistry.as_dict` is the JSON mirror,
:meth:`MetricsRegistry.expose_text` is the Prometheus text format (both
surfaced by the CLI ``metrics`` subcommand).  ``registry.enabled = False``
is the kill switch — every recording method returns immediately, which is
what ``benchmarks/bench_metrics_overhead.py`` measures against.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from time import perf_counter

#: Histogram bucket upper bounds (seconds): 100 µs doubling up to ~3.3 s,
#: plus the implicit +Inf bucket.  Log-scale, so one layout serves both
#: micro-operations and whole-workload timings.
BUCKET_BOUNDS = tuple(1e-4 * 2**i for i in range(16))


class Histogram:
    """One log-scale-bucket observation distribution.

    Not synchronized on its own — the owning registry's lock guards every
    mutation.  ``counts[i]`` holds observations with ``value <=
    BUCKET_BOUNDS[i]``; ``counts[-1]`` is the +Inf overflow bucket.
    """

    __slots__ = ("counts", "total", "sum", "min", "max")

    def __init__(self):
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        self.counts[bisect_left(BUCKET_BOUNDS, value)] += 1
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q):
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Prometheus-style: find the bucket the rank falls into and
        interpolate linearly between its bounds, then clamp to the observed
        ``[min, max]`` (which this histogram tracks exactly).  Ranks landing
        in the +Inf overflow bucket return ``max``.  None when empty.
        """
        if not self.total:
            return None
        rank = q * self.total
        cumulative = 0
        lower = 0.0
        for bound, count in zip(BUCKET_BOUNDS, self.counts):
            cumulative += count
            if count and cumulative >= rank:
                position = (rank - (cumulative - count)) / count
                value = lower + (bound - lower) * position
                return max(self.min, min(value, self.max))
            lower = bound
        return self.max

    def as_dict(self):
        """JSON-safe view; buckets keyed by upper bound, +Inf last.

        ``derived`` carries bucket-interpolated p50/p95/p99 estimates —
        the quantiles a Prometheus server would compute with
        ``histogram_quantile``, precomputed here so the JSON mirror (CLI
        ``metrics --json``, ``/metrics.json``) is self-contained.
        """
        buckets = {}
        for bound, count in zip(BUCKET_BOUNDS, self.counts):
            if count:
                buckets["%g" % bound] = count
        if self.counts[-1]:
            buckets["+Inf"] = self.counts[-1]
        return {
            "count": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.total if self.total else None,
            "buckets": buckets,
            "derived": {
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
            },
        }


class MetricsRegistry:
    """Thread-safe process-wide registry of counters, gauges, histograms.

    A single :class:`threading.Lock` guards every mutation, so parallel
    executors (threads) can share one registry; reads take the same lock
    and return plain copies.  All recording methods are no-ops while
    ``enabled`` is False (:meth:`fold_lifetime` still advances its marks).
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        # Per component: its lifetime counters as of its last fold.
        self._folded = weakref.WeakKeyDictionary()

    # -- recording -----------------------------------------------------------

    def inc(self, name, value=1):
        """Add ``value`` to the named counter (created at 0)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def inc_many(self, mapping):
        """Fold a ``{name: delta}`` mapping in under one lock acquisition."""
        if not self.enabled:
            return
        counters = self._counters
        with self._lock:
            for name, value in mapping.items():
                counters[name] = counters.get(name, 0) + value

    def set_gauge(self, name, value):
        """Set the named gauge to ``value``."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def set_gauge_max(self, name, value):
        """Raise the named gauge to ``value`` if it is the new maximum."""
        if not self.enabled:
            return
        with self._lock:
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = value

    def observe(self, name, value):
        """Record one observation (seconds) into the named histogram."""
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    def fold_lifetime(self, components):
        """Add what each component counted since its last fold.

        A component keeps plain lifetime ints behind ``metrics_snapshot()``
        (an IR engine, an evaluation cache).  The registry keeps one
        high-water mark per component and reads the snapshot and advances
        the mark under its own lock, so concurrent folds neither count an
        increment twice nor drop one.  Disabled, it advances the marks
        only: what was counted with the registry off never surfaces once
        it is back on.  :meth:`reset` keeps the marks.
        """
        counters = self._counters
        with self._lock:
            for component in components:
                current = component.metrics_snapshot()
                mark = self._folded.get(component, {})
                self._folded[component] = current
                if not self.enabled:
                    continue
                for name, value in current.items():
                    delta = value - mark.get(name, 0)
                    if delta:
                        counters[name] = counters.get(name, 0) + delta

    def timer(self, name):
        """Context manager observing its elapsed wall time into ``name``."""
        return _Timer(self, name)

    # -- reading -------------------------------------------------------------

    def counter(self, name):
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name, default=None):
        """Current value of a gauge (``default`` if never set)."""
        with self._lock:
            return self._gauges.get(name, default)

    def histogram(self, name):
        """Dict view of a histogram, or None if never observed."""
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.as_dict() if histogram is not None else None

    def as_dict(self):
        """JSON-safe snapshot of every metric, plus derived ratios.

        ``derived`` currently carries ``ir.cache_hit_ratio`` whenever the
        IR engine has reported probes — the one quotient worth computing
        server-side because both terms live here.
        """
        with self._lock:
            snapshot = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in self._histograms.items()
                },
            }
        hits = snapshot["counters"].get("ir.cache_hits", 0)
        misses = snapshot["counters"].get("ir.cache_misses", 0)
        derived = {}
        if hits + misses:
            derived["ir.cache_hit_ratio"] = hits / (hits + misses)
        snapshot["derived"] = derived
        return snapshot

    def expose_text(self):
        """Prometheus text exposition of the whole registry.

        Metric names are sanitized to the Prometheus grammar (dots and
        dashes become underscores) and prefixed ``flexpath_``; histograms
        render cumulative ``_bucket{le=...}`` series plus ``_sum`` and
        ``_count``, as the format requires.  Two raw names that sanitize to
        the same Prometheus name (``a.b`` vs ``a-b``) stay distinct
        samples: later collisions get a ``_2``/``_3`` suffix so the
        exposition never repeats a metric name.

        The registry lock is held only long enough to snapshot — string
        formatting (O(metrics × buckets)) runs outside it, so a large
        exposition never stalls the hot recording paths.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = [
                (name, list(histogram.counts), histogram.sum, histogram.total)
                for name, histogram in sorted(self._histograms.items())
            ]
        taken = {}

        def unique(name):
            metric = _prom_name(name)
            seen = taken.get(metric, 0) + 1
            taken[metric] = seen
            return metric if seen == 1 else "%s_%d" % (metric, seen)

        lines = []
        for name, value in counters:
            metric = unique(name)
            lines.append("# TYPE %s counter" % metric)
            lines.append("%s %s" % (metric, _prom_value(value)))
        for name, value in gauges:
            metric = unique(name)
            lines.append("# TYPE %s gauge" % metric)
            lines.append("%s %s" % (metric, _prom_value(value)))
        for name, counts, total_sum, total in histograms:
            metric = unique(name)
            lines.append("# TYPE %s histogram" % metric)
            cumulative = 0
            for bound, count in zip(BUCKET_BOUNDS, counts):
                cumulative += count
                lines.append(
                    '%s_bucket{le="%g"} %d' % (metric, bound, cumulative)
                )
            cumulative += counts[-1]
            lines.append('%s_bucket{le="+Inf"} %d' % (metric, cumulative))
            lines.append("%s_sum %s" % (metric, _prom_value(total_sum)))
            lines.append("%s_count %d" % (metric, total))
        return "\n".join(lines) + "\n"

    # -- lifecycle -----------------------------------------------------------

    def reset(self):
        """Drop every metric (the registry object, its lock and its
        lifetime marks survive)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __repr__(self):
        with self._lock:
            return "MetricsRegistry(counters=%d, gauges=%d, histograms=%d)" % (
                len(self._counters),
                len(self._gauges),
                len(self._histograms),
            )


class _Timer:
    """Times a block and observes the elapsed seconds into a histogram."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry, name):
        self._registry = registry
        self._name = name

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._registry.observe(self._name, perf_counter() - self._start)
        return False


def _prom_name(name):
    out = []
    for char in name:
        out.append(char if char.isalnum() else "_")
    return "flexpath_" + "".join(out)


def _prom_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


#: The process-wide registry every instrumented seam reports into.
REGISTRY = MetricsRegistry()


def get_registry():
    """Return the process-wide :data:`REGISTRY`."""
    return REGISTRY
