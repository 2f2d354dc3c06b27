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
  ordinary ``QueryContext`` per shard, each bound to a
  :class:`~repro.backend.sharded.ShardView` (shard-local storage,
  corpus-wide statistics).  A query compiles **once**, on the coordinator:
  penalties and schedules derive from aggregate statistics and a plan's
  node-id-free structure is corpus-independent, so the one
  :class:`~repro.compiled.CompiledQuery` artifact is valid on every shard.
  The plan cache fences on the backend version (the sum of child
  versions), so ingest into *any* shard fences every cached artifact.
- ``readdress`` wraps a shard-local answer node with the global id the
  unsharded corpus would have assigned, so merged answers rank and
  tie-break exactly like unsharded ones.
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
- the scatter **thread pool**.  Traced queries run shards sequentially
  instead (the shard IR engines share the query's
  :class:`~repro.obs.Tracer`, which is not thread-safe) with each shard's
  spans merged under a ``shard N`` span.

Known caveat: answers are byte-identical to the unsharded engine for
queries whose bindings never touch the virtual collection root (wildcard
root tags can bind it); the workload generator emits no such queries.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.backend.sharded import GlobalNode
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
    ``estimator`` / ``plan_cache`` / ``compile`` / ``schedule`` /
    ``attach_tracer`` (which fans out to every shard's IR engine through
    the aggregate) — is inherited, bound to the sharded backend's
    aggregates, so plans are lowered once, from *aggregate* counts, and run
    as lowered on every shard.  ``document``, ``executor`` and
    ``eval_cache`` are None: no unified node table exists, plans only ever
    run on the sources, and each source memoizes in its own evaluation
    cache (keys are shard-local node ids, which must never mix).
    """

    def _bind_execution(self):
        self.sources = [
            QueryContext(view, weights=self.weights)
            for view in self.backend.views()
        ]
        self.eval_cache = None
        self.executor = None
        self._thread_pool = None

    def _on_backend_growth(self, backend, start_id, end_id):
        # The sources subscribed through their views and have already
        # dropped their own caches; what goes stale here is the
        # coordinator's plan cache (penalties from aggregate statistics).
        self.plan_cache.invalidate()

    def readdress(self, source_index, node):
        """The shard-local answer ``node`` under its global node id."""
        return GlobalNode(
            node,
            self.backend.translate_id(source_index, node.node_id),
            source_index,
        )

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
