"""The compile phase: immutable query artifacts and the bounded plan cache.

FleXPath's Figure-7 lifecycle has two halves with very different
lifetimes.  *What a relaxed query means* — the parsed TPQ, its closure
(§3.2), the penalty-ordered relaxation schedule (§4), and the per-level
plans that realize each schedule prefix (§5.2) — depends only on the query
text, the weight assignment, and the corpus statistics.  *How a particular
top-K request evaluates* — which levels actually run, which tuples
survive, what lands in the answer heap — depends on ``k``, the ranking
scheme, and the live caches.  This module owns the first half:

- :class:`CompiledQuery` is the immutable compile artifact.  Every field
  is computed eagerly at construction and never mutated afterwards, so one
  instance may be shared freely between threads and across queries;
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

from dataclasses import dataclass

from repro.cache import BoundedLRU
from repro.plans.lowering import lower_plan
from repro.plans.plan import build_encoded_plan, build_strict_plan
from repro.query.closure import closure
from repro.query.minimize import minimize
from repro.relax.steps import RelaxationSchedule


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CompiledQuery:
    """Everything knowable about a query before execution begins.

    Immutable by construction: the schedule, closure, core, and both
    lowered plan families (per-level strict plans for DPO-style walks,
    per-level encoded plans for SSO/Hybrid single-pass evaluation) are
    built eagerly and stored in tuples.  A warm :class:`PlanCache` hit
    therefore skips closure computation, schedule construction, and *all*
    plan building — the acceptance target
    ``benchmarks/bench_plan_cache.py`` measures.

    Instances hash and compare by identity; the cache key lives in
    :func:`cached_compile`, not on the artifact.
    """

    tpq: object
    closure: frozenset
    core: frozenset
    schedule: RelaxationSchedule
    max_relaxations: object
    skip_useless_gamma: bool
    weights: object
    corpus_version: int
    strict_plans: tuple
    encoded_plans: tuple

    # -- level accessors -----------------------------------------------------

    def __len__(self):
        """Number of relaxation levels beyond the original query."""
        return len(self.schedule)

    def level_count(self):
        """Total levels including level 0 (the original query)."""
        return len(self.schedule) + 1

    def strict_plan(self, level):
        """The lowered plan evaluating exactly schedule level ``level``."""
        return self.strict_plans[level]

    def encoded_plan(self, level):
        """The lowered single-pass plan encoding schedule levels 0..``level``."""
        return self.encoded_plans[level]

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


def compile_query(context, tpq, weights=None, max_relaxations=None,
                  skip_useless_gamma=True):
    """Produce the immutable :class:`CompiledQuery` for one request shape.

    Pure with respect to the context: reads the penalty model, the corpus
    counts and the backend version, writes nothing.  The artifact captures,
    in order:

    1. the **closure** of the query's logical expression and its **core**
       (the minimal equivalent set, Theorem 1) — the §3 semantics every
       relaxation is defined against;
    2. the **relaxation schedule** with per-level cumulative penalties
       (cheapest valid drop first, §4);
    3. one **strict plan per level** (what DPO and the naive baseline
       execute) and one **encoded plan per level** (what SSO/Hybrid
       execute, Figure 8), each lowered from the context's corpus counts
       (:func:`~repro.plans.lowering.lower_plan`: join order, holistic twig
       join vs. binary pipeline, per-operator estimates) at compile time,
       so the execute phase never builds a plan.
    """
    weights = weights if weights is not None else context.weights
    statistics = context.statistics
    closure_set = closure(tpq)
    core_set = minimize(closure_set)
    schedule = RelaxationSchedule(
        tpq,
        context.penalties,
        max_steps=max_relaxations,
        skip_useless_gamma=skip_useless_gamma,
    )
    strict_plans = tuple(
        lower_plan(build_strict_plan(entry.query, weights), statistics)
        for entry in schedule.entries
    )
    encoded_plans = tuple(
        lower_plan(build_encoded_plan(schedule, level), statistics)
        for level in range(len(schedule) + 1)
    )
    return CompiledQuery(
        tpq=tpq,
        closure=closure_set,
        core=core_set,
        schedule=schedule,
        max_relaxations=max_relaxations,
        skip_useless_gamma=skip_useless_gamma,
        weights=weights,
        corpus_version=context.backend.version,
        strict_plans=strict_plans,
        encoded_plans=encoded_plans,
    )


class PlanCache(BoundedLRU):
    """The bounded LRU of compiled queries a context fronts compiles with.

    Filled and probed only through :func:`cached_compile`, which owns the
    key; reports ``plan_cache.*`` to the process registry.
    """

    name = "plan"
    default_max_entries = 256


def cached_compile(context, producer, query, max_relaxations,
                   skip_useless_gamma):
    """Probe ``context.plan_cache``; on a miss run ``producer`` and store.

    The one probe-compile-store path behind ``QueryContext.compile`` (which
    the sharded coordinator inherits).  The key is the compile request,
    fenced by the backend version: a grown corpus can never be answered
    with plans whose penalties, join order or operator were derived from
    stale statistics.

    ``producer`` is the calling module's own ``compile_query`` binding, so
    a tracer that wraps that module-level name (benchmarks/e2e/spans.py)
    still sees the compile.
    """
    key = (query, max_relaxations, skip_useless_gamma)
    version = context.backend.version
    compiled = context.plan_cache.get(key, version)
    if compiled is None:
        compiled = producer(
            context,
            query,
            max_relaxations=max_relaxations,
            skip_useless_gamma=skip_useless_gamma,
        )
        context.plan_cache.put(key, version, compiled)
    return compiled
