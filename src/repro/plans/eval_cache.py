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

The cache is owned by the query context and survives across queries.  It
fences on the backend version like the keyed tiers (DESIGN §9): every
query's :class:`~repro.topk.base.Scatter` calls :meth:`EvaluationCache.fence`
with the version of the context the query came in through, and a newer
version drops every entry before the query probes.  ``enabled = False`` is
the kill switch: both shapes then compute directly and record nothing.

Observability: each tier keeps plain int hit/miss counters, read, like the
IR engine's, by :meth:`~repro.topk.base.Strategy.top_k` at the end of a
query.

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

    def make_room(self, adding):
        """Under the lock: flush every entry if ``adding`` more would not fit."""
        if self.entries + adding > self.max_entries:
            self.data.clear()
            self.entries = 0
            self.flushes += 1


class EvaluationCache:
    """Memoizes pools, joins, contains checks, satisfier sets, subtree tables."""

    __slots__ = (
        "enabled", "_tiers", "_invalidations", "_version", "_fence_lock",
        "__weakref__",
    )

    def __init__(self, max_entries=DEFAULT_MAX_ENTRIES):
        self.enabled = True
        self._tiers = {name: _Tier(name, max_entries) for name in TIERS}
        self._invalidations = 0
        self._version = None
        self._fence_lock = threading.Lock()

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
            tier.hits += 1
            return found
        tier.misses += 1
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
        tier.hits += probes - len(missing)
        tier.misses += len(missing)
        return table if table is not None else {}

    def fence(self, version):
        """Drop every entry if ``version`` is newer than the entries'.

        The scatter calls it under the read lock, so an older version never
        arrives.  The version moves after the clear: a concurrent query
        that reads it current finds no stale entry.
        """
        if version == self._version:
            return
        with self._fence_lock:
            if self._version is None or version > self._version:
                self.clear()
                self._version = version

    def clear(self):
        """Drop every entry (a newer version / test isolation); counters stay."""
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
        ``invalidations`` the fence/clear count; the per-tier split is in
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

        :meth:`~repro.topk.base.Strategy.top_k` folds their increments into
        a traced query's tracer and into the
        :class:`~repro.obs.MetricsRegistry`.
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
