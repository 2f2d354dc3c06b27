"""The one bounded LRU behind both keyed cache tiers.

Two tiers memoize by request key (DESIGN §9): the tier-2
:class:`ResultCache` holds finished :class:`~repro.topk.base.TopKResult`
objects in front of every query, and the
:class:`~repro.compiled.PlanCache` holds compiled
:class:`~repro.compiled.CompiledQuery` artifacts in front of
:func:`~repro.compiled.compile_query`.  Both are :class:`BoundedLRU` under
a name; the name picks the registry prefix (``result_cache.*`` /
``plan_cache.*``) and the ``cache_hit``/``cache_miss`` event payload.

Correctness relies on two facts:

- cached values are immutable in practice (frozen scores, tuples of
  answers, eagerly built plans), so handing the same object back twice —
  to any thread — is safe;
- a backend only changes through ingest, which bumps its ``version``.
  Every entry remembers the version it was stored at and a probe at any
  other version misses, so a stale read is impossible even before the
  owner's ingest subscription calls :meth:`BoundedLRU.invalidate` (which
  is what frees the memory the stale entries pin).

Thread-safety: a single mutex serializes every probe — even ``get``
mutates (LRU ``move_to_end``).  Probes are one per query or compile, not
one per node, so the lock costs nothing measurable; counters go straight
to the process :class:`~repro.obs.metrics.MetricsRegistry` and ride along
as instance fields so :meth:`BoundedLRU.info` reports per-engine numbers
when several engines share one process registry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.events import HUB
from repro.obs.metrics import REGISTRY


class BoundedLRU:
    """Thread-safe, version-fenced LRU with registry/event instrumentation."""

    #: Short tier name: registry prefix ``<name>_cache``, event payload.
    name = None
    #: Bound used when the constructor is given none.
    default_max_entries = None

    def __init__(self, max_entries=None):
        if max_entries is None:
            max_entries = self.default_max_entries
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries = OrderedDict()  # key -> (version, value)
        self._lock = threading.Lock()
        self._prefix = self.name + "_cache."
        self._event = {"engine": self.name, "cache": self.name}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key, version):
        """The value stored for ``key`` at ``version``, or None; refreshes LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            hit = entry is not None and entry[0] == version
            if hit:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if REGISTRY.enabled:
            REGISTRY.inc(self._prefix + ("hits" if hit else "misses"))
        if HUB.active:
            HUB.emit("cache_hit" if hit else "cache_miss", dict(self._event))
        return entry[1] if hit else None

    def put(self, key, version, value):
        """Store ``value``, evicting the least-recently-used entry past the bound."""
        with self._lock:
            entries = self._entries
            entries[key] = (version, value)
            entries.move_to_end(key)
            evicted = len(entries) > self.max_entries
            if evicted:
                entries.popitem(last=False)
                self.evictions += 1
            size = len(entries)
        if REGISTRY.enabled:
            if evicted:
                REGISTRY.inc(self._prefix + "evictions")
            REGISTRY.set_gauge(self._prefix + "size", size)

    def invalidate(self):
        """Drop every entry (the backend grew)."""
        with self._lock:
            dropped = bool(self._entries)
            if dropped:
                self._entries.clear()
                self.invalidations += 1
        if REGISTRY.enabled:
            if dropped:
                REGISTRY.inc(self._prefix + "invalidations")
            REGISTRY.set_gauge(self._prefix + "size", 0)

    def info(self):
        """Instance-level counters (independent of the process registry)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def __len__(self):
        # Same discipline as every other accessor: len() of an OrderedDict
        # mid-mutation (put's insert + LRU pop) is not a consistent read.
        with self._lock:
            return len(self._entries)

    def __repr__(self):
        return "%s(entries=%d, max_entries=%d)" % (
            type(self).__name__,
            len(self),
            self.max_entries,
        )


class ResultCache(BoundedLRU):
    """Tier 2: finished top-K results, keyed by the canonical request.

    The key is ``(TPQ, k, scheme name, algorithm, max_relaxations)`` — two
    textual spellings of one tree pattern share an entry because
    :class:`~repro.query.tpq.TPQ` hashes by its canonical structural key.
    """

    name = "result"
    default_max_entries = 128
    # Bound on this class so that a tracer can wrap the result tier's
    # probes alone (benchmarks/e2e/spans.py patches these two names).
    get = BoundedLRU.get
    put = BoundedLRU.put
