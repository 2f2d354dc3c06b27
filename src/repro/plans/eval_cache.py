"""Tier-1 evaluation cache: work shared across relaxation levels.

FleXPath's top-K algorithms evaluate a *sequence* of plans per query — DPO
walks the relaxation schedule one level at a time, SSO/Hybrid restart with
more relaxations encoded — and adjacent levels share almost all of their
leaf scans and prefix joins.  :class:`EvaluationCache` memoizes exactly
that shared work inside one :class:`~repro.topk.base.QueryContext`:

- **pool** — seeded tag pools per variable: the filtered candidate list for
  a plan root, keyed by ``(tag, attr-predicate set, pool restriction)``;
- **join** — structural-join candidate sets: one ``base id → candidate
  ids`` table per join signature ``(axis, tag, surviving attr-predicate
  set, pool restriction)``, fetched once per join step and filled for the
  bases it lacks by one merge; a semi-join step keeps ``base id → bool``
  (has any candidate) under a signature of its own, same budget, flush and
  counters;
- **contains** — point ``satisfies``/``score`` probes of the IR engine,
  one ``node id → (satisfied, score)`` table per expression — the same
  context node is checked against the same expression at every level that
  binds it; a node view is made only on a miss;
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
listeners are attached.  Join probes are counted per probe too, but the
executor tallies a whole join step and folds it in with one call — one
event per step, carrying the probe ``count``.

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

#: Entry budget of each of the two unbounded-growth maps (join and contains,
#: each counted over the entries of all its tables).  Exceeding it flushes
#: that map — a full flush is crude but keeps the per-probe path to a dict
#: get, and repeated queries re-warm in one run.
DEFAULT_MAX_ENTRIES = 200_000


class EvaluationCache:
    """Memoizes pools, join candidates, and contains probes per context."""

    __slots__ = (
        "enabled",
        "max_entries",
        "_pools",
        "_joins",
        "_join_entries",
        "_contains",
        "_contains_entries",
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
        self._join_entries = 0
        self._contains = {}
        self._contains_entries = 0
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

    # -- join cache (one candidate table per join signature) -----------------

    def join_table(self, signature, bases, resolve):
        """The ``base id → candidate ids`` (or ``→ bool``) table covering ``bases``.

        ``bases`` is the set of distinct base ids one join step probes;
        ``resolve(sorted missing ids)`` returns the entries the table lacks
        (every missing id present, ``()`` or ``False`` for no candidates —
        the values are the caller's, the table only keeps them).  Returns the
        table — shared and live, callers only read it — and the number of
        bases that had to be resolved.  The budget counts bases over all
        tables: an insert that would exceed it drops every table first, and
        the step in flight keeps the entries it already relied on.
        """
        table = self._joins.get(signature)
        missing = bases.difference(table) if table else bases
        if not missing:
            return table, 0
        filled = resolve(sorted(missing))
        with self._lock:
            if self._join_entries + len(filled) > self.max_entries:
                self._joins.clear()
                self._join_entries = 0
                self._flushes += 1
            current = self._joins.get(signature)
            if table and current is not table:
                # Flushed (here or by a concurrent run) since ``missing``
                # was computed: carry over what this step found present.
                for base in bases:
                    if base not in filled:
                        filled[base] = table[base]
            if current is None:
                current = self._joins[signature] = {}
            before = len(current)
            current.update(filled)
            self._join_entries += len(current) - before
        return current, len(missing)

    def count_join_probes(self, hits, misses):
        """Fold one join step's per-probe tallies into the counters."""
        self._hits["join"] += hits
        self._misses["join"] += misses
        if HUB.active:
            for kind, count in (("cache_hit", hits), ("cache_miss", misses)):
                if count:
                    HUB.emit(
                        kind, {"engine": "eval", "cache": "join", "count": count}
                    )

    # -- contains probes -----------------------------------------------------

    def satisfies(self, ir, node_of, node_id, expression):
        """Memoized ``ir.satisfies(node_of(node_id), expression)``."""
        table = self._contains.get(expression)
        cached = table.get(node_id) if table is not None else None
        if cached is not None:
            self._hit("contains")
            return cached[0]
        self._miss("contains")
        satisfied = ir.satisfies(node_of(node_id), expression)
        self._put_contains(expression, node_id, (satisfied, None))
        return satisfied

    def score(self, ir, node_of, node_id, expression):
        """Memoized ``ir.score(node_of(node_id), expression)``.

        Shares entries with :meth:`satisfies` — a score is only ever asked
        for after a satisfying probe, so the pair rides one entry — but is a
        probe of its own: an entry whose score half is still empty counts
        as a miss, so ``hits + misses`` is the number of probes made.
        """
        table = self._contains.get(expression)
        cached = table.get(node_id) if table is not None else None
        if cached is not None and cached[1] is not None:
            self._hit("contains")
            return cached[1]
        self._miss("contains")
        value = ir.score(node_of(node_id), expression)
        satisfied = cached[0] if cached is not None else True
        self._put_contains(expression, node_id, (satisfied, value))
        return value

    def _put_contains(self, expression, node_id, entry):
        """Store one probe result in its expression's ``node id → entry`` table.

        One table per expression rather than one ``(expression, node id)``
        key per probe: an entry is then an int and a pair of scalars, which
        the cyclic collector stops tracking at its first visit, so a warm
        cache of 10⁵ probes costs a full collection nothing to walk.  The
        budget counts entries over all tables; reaching it drops them all.
        """
        with self._lock:
            table = self._contains.get(expression)
            if table is None or node_id not in table:
                if self._contains_entries >= self.max_entries:
                    self._contains.clear()
                    self._contains_entries = 0
                    self._flushes += 1
                    table = None
                self._contains_entries += 1
                if table is None:
                    table = self._contains[expression] = {}
            table[node_id] = entry

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
            self._join_entries = 0
            self._contains.clear()
            self._contains_entries = 0
            self._satisfier_sets.clear()

    def entry_count(self):
        """Total live entries across the sub-caches (joins: bases held)."""
        return (
            len(self._pools)
            + self._join_entries
            + self._contains_entries
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
