"""Tier-1 evaluation cache: work shared across relaxation levels.

FleXPath's top-K algorithms evaluate a *sequence* of plans per query — DPO
walks the relaxation schedule one level at a time, SSO/Hybrid restart with
more relaxations encoded — and adjacent levels share almost all of their
leaf scans, joins and ``contains`` checks.  :class:`EvaluationCache`
memoizes exactly that shared work inside one
:class:`~repro.topk.base.QueryContext`, in five tiers of one class:

- **pool** — seeded tag pools per variable: the filtered candidate list for
  a plan root, keyed by ``(tag, attr-predicate set, pool restriction)``;
- **join** — one ``base id → candidate ids`` table per join signature
  ``(axis, tag, surviving attr-predicate set, pool restriction, exists)``;
  a semi-join step keeps ``base id → 0.0`` (has a candidate) or ``None``;
- **contains** — one ``node id → keyword score`` table per expression,
  ``None`` where the node does not satisfy it;
- **satisfiers** — whole contains-satisfier id sets per ``(expression,
  tag)``, the IR-first strategy's seeds;
- **subtree** — the twig operator's ``node id → best keyword score`` of a
  full embedding of one variable's subtree, for the pool nodes that have
  one, per subtree signature ``(tag, attr-predicate set, pool
  restriction, check expressions, ((axis, child signature), ...))``.

Two access shapes, nothing else: :meth:`EvaluationCache.value` keeps one
entry per key (``pool``, ``satisfiers``); :meth:`EvaluationCache.table`
keeps one ``id → value`` table per key (``join``, ``contains``,
``subtree``) and is probed set-at-a-time — one call per pipeline step,
filling the ids the table lacks with one resolver call (a ``subtree``
table is filled whole, from the variable's pool).

The cache is owned by the query context and survives across queries — a
document only changes through :meth:`~repro.collection.Corpus.add_document`,
which clears it via the context's subscription.  ``enabled = False`` is the
kill switch: both shapes then compute directly and record nothing.

Observability: each tier keeps plain int hit/miss counters (folded as
deltas into the process :class:`~repro.obs.metrics.MetricsRegistry` per
query, like the IR engine's) and fires the ``cache_hit``/``cache_miss``
event seam with ``{"engine": "eval", "cache": <tier>, "count": n}`` — one
event per call — when listeners are attached.

Thread-safety: each tier's mutex guards its *structural* mutations (insert,
budget flush, clear), so concurrent queries sharing one context can probe
and fill the cache safely.  Lookups stay lock-free — CPython dict reads
are atomic and a racy miss merely recomputes a value that was about to be
cached anyway.  The hit/miss counters are likewise unlocked advisory
tallies: a lost increment under contention skews a ratio by a hair but can
never corrupt state.
"""

from __future__ import annotations

import threading

from repro.obs.events import HUB

#: Entry budget of each tier (a table tier counts the entries of all its
#: tables).  Exceeding it flushes that tier — a full flush is crude but
#: keeps the probe path to a dict get, and repeated queries re-warm in one
#: run.
DEFAULT_MAX_ENTRIES = 200_000

#: The tier names, in the order ``metrics_snapshot`` reports them.
TIERS = ("pool", "join", "contains", "satisfiers", "subtree")


class _Tier:
    """One memo: its dict, entry count, budget, flush, counters and lock."""

    __slots__ = (
        "name", "max_entries", "data", "entries", "hits", "misses",
        "flushes", "lock",
    )

    def __init__(self, name, max_entries):
        self.name = name
        self.max_entries = max_entries
        self.data = {}
        self.entries = self.hits = self.misses = self.flushes = 0
        self.lock = threading.Lock()

    def count(self, hits, misses):
        self.hits += hits
        self.misses += misses
        if HUB.active:
            for kind, count in (("cache_hit", hits), ("cache_miss", misses)):
                if count:
                    HUB.emit(
                        kind, {"engine": "eval", "cache": self.name, "count": count}
                    )

    def make_room(self, adding):
        """Under the lock: flush every entry if ``adding`` more would not fit."""
        if self.entries + adding > self.max_entries:
            self.data.clear()
            self.entries = 0
            self.flushes += 1


class EvaluationCache:
    """Memoizes pools, joins, contains checks, satisfier sets, subtree tables."""

    __slots__ = ("enabled", "_tiers", "_invalidations")

    def __init__(self, max_entries=DEFAULT_MAX_ENTRIES):
        self.enabled = True
        self._tiers = {name: _Tier(name, max_entries) for name in TIERS}
        self._invalidations = 0

    @property
    def max_entries(self):
        """The entry budget of each tier."""
        return self._tiers["pool"].max_entries

    @max_entries.setter
    def max_entries(self, value):
        for tier in self._tiers.values():
            tier.max_entries = value

    def value(self, tier, key, compute):
        """The entry for ``key`` in ``tier``, computing it on first use."""
        if not self.enabled:
            return compute()
        tier = self._tiers[tier]
        found = tier.data.get(key)
        if found is not None:
            tier.count(1, 0)
            return found
        tier.count(0, 1)
        found = compute()
        with tier.lock:
            if key not in tier.data:
                tier.make_room(1)
                tier.entries += 1
            tier.data[key] = found
        return found

    def table(self, tier, key, ids, resolve, probes):
        """The ``id → value`` table for ``key`` in ``tier``, covering ``ids``.

        ``ids`` is the set of distinct ids one pipeline step reads, or an
        id-sorted sequence for a table that is filled whole or not at all
        (the ``subtree`` tier's): a table present is then a hit without a
        set difference.  ``resolve(sorted missing ids)`` returns a dict
        holding every id the table lacks (the values are the caller's, the
        table only keeps them; a whole table may leave ids out).  Returns
        the table — shared and live, callers only read it.
        ``probes`` is how many reads the step makes: hits are ``probes``
        less the ids resolved, misses the ids resolved.  An insert that
        would exceed the tier's budget drops every table first, and the
        step in flight keeps the entries it already relied on.
        """
        if not self.enabled:
            return resolve(sorted(ids))
        tier = self._tiers[tier]
        table = tier.data.get(key)
        if table is None:
            missing = ids
        elif isinstance(ids, (set, frozenset)):
            missing = ids.difference(table)
        else:
            missing = ()
        if missing:
            filled = resolve(sorted(missing))
            with tier.lock:
                tier.make_room(len(filled))
                current = tier.data.get(key)
                if table and current is not table:
                    # Flushed (here or by a concurrent run) since ``missing``
                    # was computed: carry over what this step found present.
                    for node_id in ids:
                        if node_id not in filled:
                            filled[node_id] = table[node_id]
                if current is None:
                    current = tier.data[key] = {}
                before = len(current)
                current.update(filled)
                tier.entries += len(current) - before
            table = current
        tier.count(probes - len(missing), len(missing))
        return table if table is not None else {}

    def clear(self):
        """Drop every entry (corpus growth / test isolation); counters stay."""
        dropped = False
        for tier in self._tiers.values():
            with tier.lock:
                dropped = dropped or bool(tier.data)
                tier.data.clear()
                tier.entries = 0
        if dropped:
            self._invalidations += 1

    def info(self):
        """Instance counters, same schema as the plan and result caches.

        Sums over the tiers: ``max_entries`` is the sum of their budgets
        (so ``entries <= max_entries``), ``evictions`` the budget flushes,
        ``invalidations`` the growth/clear count; the per-tier split is in
        :meth:`metrics_snapshot`.
        """
        tiers = self._tiers.values()
        return {
            "entries": sum(tier.entries for tier in tiers),
            "max_entries": sum(tier.max_entries for tier in tiers),
            "hits": sum(tier.hits for tier in tiers),
            "misses": sum(tier.misses for tier in tiers),
            "evictions": sum(tier.flushes for tier in tiers),
            "invalidations": self._invalidations,
        }

    def metrics_snapshot(self):
        """Lifetime counters, keyed like the process registry.

        Callers fold *deltas* between two snapshots into the shared
        :class:`~repro.obs.MetricsRegistry` (see
        :func:`repro.topk.base.record_topk_metrics`).
        """
        snapshot = {"eval_cache.flushes": 0}
        for tier in self._tiers.values():
            snapshot["eval_cache.%s.hits" % tier.name] = tier.hits
            snapshot["eval_cache.%s.misses" % tier.name] = tier.misses
            snapshot["eval_cache.flushes"] += tier.flushes
        return snapshot


def restriction_key(allowed):
    """A hashable form of a pool restriction (None passes through)."""
    if allowed is None or isinstance(allowed, frozenset):
        return allowed
    return frozenset(allowed)
