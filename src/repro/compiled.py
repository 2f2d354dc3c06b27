"""The compile phase: immutable query artifacts and the bounded plan cache.

FleXPath's Figure-7 lifecycle has two halves with very different
lifetimes.  *What a relaxed query means* — the parsed TPQ, its closure
(§3.2), the penalty-ordered relaxation schedule (§4), and the per-level
plans that realize each schedule prefix (§5.2) — depends only on the query
text, the weight assignment, and the corpus statistics.  *How a particular
top-K request evaluates* — which levels actually run, which tuples
survive, what lands in the answer heap — depends on ``k``, the ranking
scheme, and the live caches.  This module owns the first half:

- :class:`CompiledQuery` is the compile artifact: the schedule at
  construction, each level's plan the first time a strategy asks for it
  (lowered against the statistics of the artifact's corpus version, kept
  thereafter), so one instance may be shared freely between threads and
  across queries;
- :func:`compile_query` is the pure producer — same inputs, same artifact,
  no side effects on the context;
- :class:`PlanCache` is the bounded, backend-version-fenced LRU (a named
  :class:`~repro.cache.BoundedLRU`) and :func:`cached_compile` the one
  probe-compile-store path every context's ``compile`` goes through.

The execute half lives in :mod:`repro.topk`: strategies are stateless
policies that walk a :class:`CompiledQuery` with a per-query
:class:`~repro.topk.base.ExecutionSession` carrying all mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache import BoundedLRU
from repro.errors import EvaluationError
from repro.plans.lowering import lower_plan
from repro.plans.plan import build_encoded_plan, build_strict_plan
from repro.relax.steps import RelaxationSchedule


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CompiledQuery:
    """Everything knowable about a query before execution begins.

    The schedule is built at construction; a level's plan — the strict plan
    DPO-style walks run, or the encoded plan SSO/Hybrid's single pass runs
    (Figure 8) — is built and lowered the first time :meth:`strict_plan` or
    :meth:`encoded_plan` asks for it, and kept: SSO encodes the one level
    its estimates choose (§5.1.2) and DPO stops at the first level that
    yields K (§5.1.1), so the levels no strategy reaches are never lowered.
    A warm :class:`PlanCache` hit skips schedule construction and every
    plan already lowered — what the ``compiled.plan_cache_hit_ratio``
    layer of the ``mix_zipf`` end-to-end workload measures.

    A plan is a function of the query and ``corpus_version`` alone: it is
    lowered against ``statistics`` only while their version still is
    ``corpus_version``, and asking for an unlowered level after the corpus
    grew raises :class:`~repro.errors.EvaluationError`.  (The serving path
    never sees that: the plan cache fences versions, and a query holds the
    corpus read lock.)  Two threads lowering one level keep one winner.

    Instances hash and compare by identity; the cache key lives in
    :func:`cached_compile`, not on the artifact.
    """

    tpq: object
    schedule: RelaxationSchedule
    max_relaxations: object
    weights: object
    corpus_version: int
    statistics: object
    _plans: dict = field(default_factory=dict, init=False)

    # -- level accessors -----------------------------------------------------

    def __len__(self):
        """Number of relaxation levels beyond the original query."""
        return len(self.schedule)

    def level_count(self):
        """Total levels including level 0 (the original query)."""
        return len(self.schedule) + 1

    def strict_plan(self, level):
        """The lowered plan evaluating exactly schedule level ``level``."""
        return self._plan(level, True)

    def encoded_plan(self, level):
        """The lowered single-pass plan encoding schedule levels 0..``level``."""
        return self._plan(level, False)

    def _plan(self, level, strict):
        key = (level, strict)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        if self.statistics.version != self.corpus_version:
            raise EvaluationError(
                "the corpus changed since %r was compiled; compile the query "
                "again" % self
            )
        if strict:
            built = build_strict_plan(self.schedule.level(level).query,
                                      self.weights)
        else:
            built = build_encoded_plan(self.schedule, level)
        return self._plans.setdefault(
            key, lower_plan(built, self.statistics, strict=strict)
        )

    def structural_score(self, level):
        """Compile-time structural score of answers first seen at ``level``."""
        return self.schedule.structural_score(level)

    def contains_count(self):
        """Number of ``contains`` predicates in the original query."""
        return len(self.tpq.contains)

    def __repr__(self):
        return "CompiledQuery(%s, levels=%d, version=%d)" % (
            self.tpq.to_xpath(),
            len(self.schedule),
            self.corpus_version,
        )


def compile_query(context, tpq, weights=None, max_relaxations=None):
    """Produce the :class:`CompiledQuery` for one request shape.

    Pure with respect to the context: reads the penalty model, the corpus
    counts and the backend version, writes nothing.  It builds the
    **relaxation schedule** with per-level cumulative penalties (cheapest
    valid drop first, §4) and lowers no plan: the artifact lowers a
    level's strict plan (DPO and the naive baseline, on the holistic twig
    join) or encoded plan (SSO/Hybrid, Figure 8, on the binary pipeline)
    from these corpus counts when a strategy first asks for it
    (:func:`~repro.plans.lowering.lower_plan`: join order and the
    estimates of its family's operator).
    """
    weights = weights if weights is not None else context.weights
    schedule = RelaxationSchedule(
        tpq, context.penalties, max_steps=max_relaxations
    )
    return CompiledQuery(
        tpq=tpq,
        schedule=schedule,
        max_relaxations=max_relaxations,
        weights=weights,
        corpus_version=context.backend.version,
        statistics=context.statistics,
    )


class PlanCache(BoundedLRU):
    """The bounded LRU of compiled queries a context fronts compiles with.

    Filled and probed only through :func:`cached_compile`, which owns the
    key; reports ``plan_cache.*`` to the process registry.
    """

    name = "plan"
    default_max_entries = 256


def cached_compile(context, producer, query, max_relaxations):
    """Probe ``context.plan_cache``; on a miss run ``producer`` and store.

    The one probe-compile-store path behind ``QueryContext.compile`` (which
    the sharded coordinator inherits).  The key is the compile request,
    fenced by the backend version: a grown corpus can never be answered
    with plans whose penalties, join order or estimates were derived from
    stale statistics.

    ``producer`` is the calling module's own ``compile_query`` binding, so
    a tracer that wraps that module-level name (benchmarks/e2e/spans.py)
    still sees the compile.
    """
    key = (query, max_relaxations)
    version = context.backend.version
    compiled = context.plan_cache.get(key, version)
    if compiled is None:
        compiled = producer(context, query, max_relaxations=max_relaxations)
        context.plan_cache.put(key, version, compiled)
    return compiled
