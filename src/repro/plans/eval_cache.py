"""Tier-1 evaluation cache: work shared across relaxation levels.

FleXPath's top-K algorithms evaluate a *sequence* of plans per query — DPO
walks the relaxation schedule one level at a time, SSO/Hybrid restart with
more relaxations encoded — and adjacent levels share almost all of their
leaf scans and prefix joins.  :class:`EvaluationCache` memoizes exactly
that shared work inside one :class:`~repro.topk.base.QueryContext`:

- **pool** — seeded tag pools per variable: the filtered candidate list for
  a plan root, keyed by ``(tag, attr-predicate set, pool restriction)``;
- **join** — structural-join candidate sets: per base node, the filtered
  children/descendants for one join signature ``(axis, tag, surviving
  attr-predicate set, pool restriction)``;
- **contains** — point ``satisfies``/``score`` probes of the IR engine,
  keyed by ``(expression, node id)`` — the same context node is checked
  against the same expression at every level that binds it;
- **satisfiers** — whole contains-satisfier id sets per ``(expression,
  tag)``, the generalization of the IR-first strategy's private satisfier
  cache so every strategy shares one copy (and so the set is *invalidated*
  on corpus growth, which the private copy never was).

The cache is owned by the query context and survives across queries — a
document only changes through :meth:`~repro.collection.Corpus.add_document`,
which clears it via the context's subscription.  ``enabled = False`` is the
kill switch: every probe computes directly and records nothing.

Observability: each probe bumps plain int hit/miss counters (folded as
deltas into the process :class:`~repro.obs.metrics.MetricsRegistry` per
query, like the IR engine's) and fires the ``cache_hit``/``cache_miss``
event seam with ``{"engine": "eval", "cache": <name>}`` payloads when
listeners are attached.

Thread-safety: a single mutex guards every *structural* mutation (insert,
budget flush, clear), so concurrent queries sharing one context can probe
and fill the cache safely.  Lookups stay lock-free — CPython dict reads
are atomic and a racy miss merely recomputes a value that was about to be
cached anyway.  The hit/miss counters are likewise unlocked advisory
tallies: a lost increment under contention skews a ratio by a hair but can
never corrupt state, and per-probe locking on the hottest path in the
system is the wrong trade.
"""

from __future__ import annotations

import threading

from repro.obs.events import HUB

#: The named sub-caches, in probe-frequency order.
CACHE_NAMES = ("pool", "join", "contains", "satisfiers")

#: Entry budget shared by the two unbounded-growth maps (join + contains).
#: Exceeding it flushes that map — a full flush is crude but keeps the
#: per-probe path to a dict get, and repeated queries re-warm in one run.
DEFAULT_MAX_ENTRIES = 200_000


class EvaluationCache:
    """Memoizes pools, join candidates, and contains probes per context."""

    __slots__ = (
        "enabled",
        "max_entries",
        "_pools",
        "_joins",
        "_contains",
        "_satisfier_sets",
        "_hits",
        "_misses",
        "_flushes",
        "_invalidations",
        "_lock",
    )

    def __init__(self, max_entries=DEFAULT_MAX_ENTRIES):
        self.enabled = True
        self.max_entries = max_entries
        self._pools = {}
        self._joins = {}
        self._contains = {}
        self._satisfier_sets = {}
        self._hits = dict.fromkeys(CACHE_NAMES, 0)
        self._misses = dict.fromkeys(CACHE_NAMES, 0)
        self._flushes = 0
        self._invalidations = 0
        self._lock = threading.Lock()

    # -- probe bookkeeping ---------------------------------------------------

    def _hit(self, cache):
        self._hits[cache] += 1
        if HUB.active:
            HUB.emit("cache_hit", {"engine": "eval", "cache": cache})

    def _miss(self, cache):
        self._misses[cache] += 1
        if HUB.active:
            HUB.emit("cache_miss", {"engine": "eval", "cache": cache})

    # -- pool cache (plan seeds) ---------------------------------------------

    def get_pool(self, key):
        """Cached seed pool for ``key``, or None."""
        nodes = self._pools.get(key)
        if nodes is None:
            self._miss("pool")
            return None
        self._hit("pool")
        return nodes

    def put_pool(self, key, nodes):
        with self._lock:
            self._pools[key] = nodes

    # -- join cache (per-base candidate sets) --------------------------------

    def get_join(self, key):
        """Cached filtered join candidates for ``key``, or None."""
        nodes = self._joins.get(key)
        if nodes is None:
            self._miss("join")
            return None
        self._hit("join")
        return nodes

    def put_join(self, key, nodes):
        with self._lock:
            joins = self._joins
            if len(joins) >= self.max_entries:
                joins.clear()
                self._flushes += 1
            joins[key] = nodes

    # -- contains probes -----------------------------------------------------

    def satisfies(self, ir, node, expression):
        """Memoized ``ir.satisfies(node, expression)``."""
        key = (expression, node.node_id)
        cached = self._contains.get(key)
        if cached is not None:
            self._hit("contains")
            return cached[0]
        self._miss("contains")
        satisfied = ir.satisfies(node, expression)
        with self._lock:
            contains = self._contains
            if len(contains) >= self.max_entries:
                contains.clear()
                self._flushes += 1
            contains[key] = (satisfied, None)
        return satisfied

    def score(self, ir, node, expression):
        """Memoized ``ir.score(node, expression)``.

        Shares entries with :meth:`satisfies` — a score is only ever asked
        for after a satisfying probe, so the pair rides one key — but is a
        probe of its own: an entry whose score half is still empty counts
        as a miss, so ``hits + misses`` is the number of probes made.
        """
        key = (expression, node.node_id)
        cached = self._contains.get(key)
        if cached is not None and cached[1] is not None:
            self._hit("contains")
            return cached[1]
        self._miss("contains")
        value = ir.score(node, expression)
        satisfied = cached[0] if cached is not None else True
        with self._lock:
            self._contains[key] = (satisfied, value)
        return value

    # -- satisfier sets (IR-first seeding) -----------------------------------

    def satisfier_set(self, key, compute):
        """Cached frozenset of satisfier node ids, computing on first use.

        ``compute`` runs (uncached, uncounted) when the cache is disabled,
        so the kill switch degrades to direct evaluation everywhere.
        """
        if not self.enabled:
            return compute()
        cached = self._satisfier_sets.get(key)
        if cached is not None:
            self._hit("satisfiers")
            return cached
        self._miss("satisfiers")
        value = compute()
        with self._lock:
            self._satisfier_sets[key] = value
        return value

    # -- lifecycle -----------------------------------------------------------

    def clear(self):
        """Drop every entry (corpus growth / test isolation); counters stay."""
        with self._lock:
            if (
                self._pools
                or self._joins
                or self._contains
                or self._satisfier_sets
            ):
                self._invalidations += 1
            self._pools.clear()
            self._joins.clear()
            self._contains.clear()
            self._satisfier_sets.clear()

    def entry_count(self):
        """Total live entries across the sub-caches."""
        return (
            len(self._pools)
            + len(self._joins)
            + len(self._contains)
            + len(self._satisfier_sets)
        )

    def info(self):
        """Instance counters, same schema as the plan and result caches.

        ``hits``/``misses`` aggregate across the four sub-caches (the
        per-cache split is in :meth:`metrics_snapshot`); ``evictions`` is
        the budget-flush count, ``invalidations`` the growth/clear count.
        """
        return {
            "entries": self.entry_count(),
            "max_entries": self.max_entries,
            "hits": sum(self._hits.values()),
            "misses": sum(self._misses.values()),
            "evictions": self._flushes,
            "invalidations": self._invalidations,
        }

    # -- metrics -------------------------------------------------------------

    def metrics_snapshot(self):
        """Lifetime counters, keyed like the process registry.

        Callers fold *deltas* between two snapshots into the shared
        :class:`~repro.obs.MetricsRegistry` (see
        :func:`repro.topk.base.record_topk_metrics`).
        """
        snapshot = {}
        for name in CACHE_NAMES:
            snapshot["eval_cache.%s.hits" % name] = self._hits[name]
            snapshot["eval_cache.%s.misses" % name] = self._misses[name]
        snapshot["eval_cache.flushes"] = self._flushes
        return snapshot

    def hit_ratio(self):
        """Overall hit ratio across every sub-cache (None before any probe)."""
        hits = sum(self._hits.values())
        misses = sum(self._misses.values())
        if not hits and not misses:
            return None
        return hits / (hits + misses)

    def __repr__(self):
        return "EvaluationCache(enabled=%s, entries=%d)" % (
            self.enabled,
            self.entry_count(),
        )


def restriction_key(allowed):
    """A hashable form of a pool restriction (None passes through)."""
    if allowed is None or isinstance(allowed, frozenset):
        return allowed
    return frozenset(allowed)
