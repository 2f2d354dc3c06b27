"""The sharded coordinator: N sources behind one context.

The merge design (DESIGN §14) keeps per-shard execution *identical* to
single-shard execution — same plans, same executor, same schedules, same
(globally weighted) scores — and the top-K strategies are written once
against a context's *sources* (:mod:`repro.topk.base`), so nothing in this
module re-implements a strategy.  What is genuinely coordinator-specific
lives here:

- :class:`ShardedQueryContext` is a :class:`~repro.topk.base.QueryContext`
  over the :class:`~repro.backend.sharded.ShardedBackend` (global
  statistics, penalties, estimator, plan cache) whose ``sources`` are one
  ordinary ``QueryContext`` per shard, each over that shard's child
  backend.  A query compiles **once**, on the coordinator: penalties and
  schedules derive from aggregate statistics and a plan's node-id-free
  structure is corpus-independent, so the one
  :class:`~repro.compiled.CompiledQuery` artifact is valid on every shard.
  The plan cache fences on the backend version (the sum of child
  versions), so ingest into *any* shard fences every cached artifact.
  Ingest into any shard also moves the corpus-wide idf every shard scores
  with, so every source's evaluation cache fences on that same version:
  the query's :class:`~repro.topk.base.Scatter` applies it (one rule,
  DESIGN §9).
- ``readdress`` maps a shard-local answer id to the global id the
  unsharded corpus would have assigned, so merged answers rank and
  tie-break exactly like unsharded ones; the answer's
  :class:`~repro.backend.sharded.GlobalNode` view is built by the sharded
  backend when a caller first reads it.
- ``keyword_ceilings`` feeds the scatter's **early termination** (the
  §5.2.1 ``maxScoreGrowth`` bound turned per-shard ceiling): every shard's
  best possible future answer is bounded by the next level's structural
  score (identical across shards) plus a shard-local keyword ceiling
  (terms the shard has never indexed can never contribute).  A shard whose
  ceiling sorts strictly below the current global K-th answer is never
  asked for its next round — ``shards.pruned`` counts these,
  ``shards.rounds`` the coordinated rounds.  Pruning never changes
  answers: every answer a pruned shard could still produce sorts strictly
  below the final K-th.
- the scatter **thread pool**, traced queries included: a traced round
  gives each shard a private :class:`~repro.obs.Tracer` (no shard-side
  component holds one) and merges them, each shard's spans under a
  ``shard N`` span, once the round is done.

No variable binds a shard's virtual collection root (the executor keeps
it out of every pool, as it does the unsharded corpus' root), so answers
are byte-identical to the unsharded engine's for wildcard patterns too.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.ir.scoring import idf
from repro.topk.base import QueryContext

#: Safety pad on the per-shard keyword ceiling: the ceiling is provably an
#: upper bound in real arithmetic; the pad absorbs any float-summation
#: reordering between the bound and the executor's accumulation, trading an
#: immeasurable amount of pruning for certainty.
_CEILING_EPSILON = 1e-9


class ShardedQueryContext(QueryContext):
    """The coordinator context: global compile, one source per shard.

    Everything the engine, session, and observability layers look at —
    ``backend`` / ``rwlock`` / ``ir`` / ``statistics`` / ``penalties`` /
    ``estimator`` / ``plan_cache`` / ``compile`` / ``schedule`` — is
    inherited, bound to the sharded backend's aggregates, so plans are
    lowered once, from *aggregate* counts, and run as lowered on every
    shard.  ``document``, ``executor`` and ``eval_cache`` are None: no
    unified node table exists, plans only ever run on the sources, and
    each source memoizes in its own evaluation cache (keys are shard-local
    node ids, which must never mix).  A source
    is a plain ``QueryContext`` over its child backend; the only thing it
    cannot see for itself is an ingest into *another* shard, which the
    scatter's fence on the coordinator's version covers.
    """

    def _bind_execution(self):
        self.sources = [
            QueryContext(shard, weights=self.weights)
            for shard in self.backend.shards
        ]
        self.eval_cache = None
        self.executor = None
        self._thread_pool = None

    def readdress(self, source_index, node_id):
        """The global node id of shard ``source_index``'s answer ``node_id``.

        The :class:`~repro.backend.sharded.GlobalNode` view is left to the
        answer's first reader: the sharded backend's ``node`` builds it.
        """
        return self.backend.translate_id(source_index, node_id)

    def keyword_ceilings(self, compiled):
        """Per-shard upper bound on any answer's keyword score.

        An answer's keyword score sums, over the query's ``contains``
        predicates, idf-weighted averages of saturating term frequencies
        (:mod:`repro.ir.scoring`); relaxation only ever drops predicates.
        Per shard and predicate the score is therefore at most the idf
        mass of the terms the shard has indexed at all, over the total idf
        mass — with corpus-wide idf weights, so the bound (like the scores
        themselves) is shard-comparable.
        """
        backend = self.backend
        predicates = compiled.tpq.contains
        if not predicates:
            return [0.0] * backend.shard_count
        global_stats = backend.ir.index
        ceilings = []
        for shard in backend.shards:
            total = 0.0
            for predicate in predicates:
                terms = shard.ir._positive_terms(predicate.ftexpr)
                numerator = 0.0
                denominator = 0.0
                for term in terms:
                    weight = idf(global_stats, term)
                    denominator += weight
                    if shard.ir.index.posting(term) is not None:
                        numerator += weight
                if denominator > 0.0:
                    total += numerator / denominator
            ceilings.append(total + _CEILING_EPSILON)
        return ceilings

    def thread_pool(self):
        """The lazily built per-context scatter thread pool."""
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=len(self.sources),
                thread_name_prefix="shard-scatter",
            )
        return self._thread_pool

    def close(self):
        """Shut down the scatter thread pool (idempotent)."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
