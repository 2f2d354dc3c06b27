"""Shared machinery for the top-K algorithms (Fig. 7 architecture).

A :class:`QueryContext` bundles everything the algorithms share per
document: the IR engine, corpus statistics, the penalty model, the
selectivity estimator, the plan executor, and the bounded
:class:`~repro.compiled.PlanCache` of compiled queries. DPO, SSO and
Hybrid are *stateless* strategies over this context: each ``top_k`` call
compiles (or fetches) an immutable :class:`~repro.compiled.CompiledQuery`
and threads every piece of per-query mutable state through an
:class:`ExecutionSession`, so one strategy instance is safely shareable
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.backend import as_backend
from repro.compiled import PlanCache, cached_compile, compile_query
from repro.obs.events import HUB
from repro.obs.metrics import REGISTRY
from repro.obs.trace import LevelTrace
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.plans.cost import FeedbackStatistics, MeasuredCostModel
from repro.plans.eval_cache import EvaluationCache
from repro.plans.executor import PlanExecutor
from repro.relax.penalties import UNIFORM_WEIGHTS, PenaltyModel
from repro.stats.selectivity import SelectivityEstimator


class QueryContext:
    """Per-backend evaluation context shared by all top-K algorithms.

    Accepts a :class:`~repro.backend.base.StorageBackend`, a plain
    :class:`~repro.xmltree.document.Document`, or a
    :class:`~repro.collection.Corpus` (bare sources are wrapped through
    :func:`~repro.backend.as_backend`).  Everything physical — navigation,
    postings, statistics — is reached through the backend seam: the
    context's ``statistics`` attribute *is* the backend, which serves the
    full counts surface.  Bound to a growable backend, the context
    subscribes to ingests and drops its derived caches: the backend folds
    the new nodes into its own index and statistics before notifying, so
    only the plan cache (whose schedules' penalties depend on corpus
    counts) and the evaluation cache need invalidation here.

    ``rwlock`` is the context's read/write discipline: queries hold the
    read side, ingest holds the write side for the whole splice-and-extend
    transaction.  The lock *is* the backend's lock, so every context over
    one backend shares a single discipline; a plain document never
    mutates, so its private lock is uncontended.
    """

    def __init__(self, document, ir_engine=None, statistics=None,
                 weights=UNIFORM_WEIGHTS, plan_cache_size=None,
                 cost_model=None):
        backend = as_backend(document, ir_engine=ir_engine,
                             statistics=statistics)
        self.backend = backend
        self.corpus = backend.corpus
        self.document = backend.document
        self.rwlock = backend.lock
        self.ir = backend.ir
        self.statistics = backend
        self.weights = weights
        self.penalties = PenaltyModel(self.statistics, self.ir, weights)
        self.estimator = SelectivityEstimator(self.statistics, self.ir)
        self.eval_cache = EvaluationCache()
        # Physical lowering is cost-model driven: the default feedback
        # model starts out identical to §6's static estimates and refines
        # join ordering / operator choice from the cardinalities the
        # executor observes.  Pass a CostModel to override (ablations pin
        # operator_policy; custom models per docs/EXTENDING.md).
        if cost_model is None:
            cost_model = MeasuredCostModel(self.statistics)
        self.cost_model = cost_model
        feedback = getattr(cost_model, "feedback", None)
        self.feedback = (
            feedback if feedback is not None else FeedbackStatistics()
        )
        self.executor = PlanExecutor(backend, self.ir,
                                     eval_cache=self.eval_cache,
                                     feedback=self.feedback)
        self.plan_cache = PlanCache(plan_cache_size)
        backend.subscribe(self._on_backend_growth)

    def _on_backend_growth(self, backend, start_id, end_id):
        """Drop derived caches after the backend absorbed an append.

        The backend has already extended its index and statistics over the
        new id range; what remains stale here are the compiled plans and
        the memoized pools / join candidates / contains probes, all keyed
        by node id and document content.
        """
        self.plan_cache.invalidate()
        self.eval_cache.clear()
        # Observed cardinalities refer to the pre-growth corpus.
        self.feedback.clear()

    def attach_tracer(self, tracer):
        """Point the context's IR engine at a tracer (None detaches).

        The executor receives its tracer per ``run`` call; the IR engine is
        long-lived and shared, so tracing is attached for the duration of a
        traced query and detached afterwards.  Because the attachment
        mutates shared state, the session runs traced queries under the
        context's *write* lock (see DESIGN §10).
        """
        self.ir.set_tracer(tracer)

    def compile(self, query, max_relaxations=None, skip_useless_gamma=True):
        """Return the :class:`~repro.compiled.CompiledQuery` for a request.

        Fronted by the bounded, backend-version-fenced plan cache: a warm
        hit returns the shared immutable artifact without touching the
        closure, schedule, or plan builders.
        """
        return cached_compile(
            self, compile_query, query, max_relaxations, skip_useless_gamma
        )

    def schedule(self, query, max_steps=None, skip_useless_gamma=True):
        """Return (and cache) the relaxation schedule for a query."""
        return self.compile(
            query,
            max_relaxations=max_steps,
            skip_useless_gamma=skip_useless_gamma,
        ).schedule


class ExecutionSession:
    """All mutable state of one top-K evaluation, bundled per query.

    Strategies are stateless policies: ``top_k`` creates one session,
    ``execute`` threads it through every helper, and nothing about the
    query ever lands on the shared strategy object or the shared context.
    The fields mirror what the five strategies used to keep in local
    variables — a tracer, the context's evaluation-cache handle, the
    cross-level answer-id dedup set, per-level stats/traces, and the level
    counters the :class:`TopKResult` reports.

    ``control`` is the per-query deadline/cancellation hook (an object with
    a ``check()`` method raising to abort, e.g.
    :class:`~repro.session.QueryControl`): :meth:`run_plan` checks it
    before every plan execution and threads it into the executor as the
    per-join ``checkpoint``, so a timed-out query stops between joins
    rather than running its level to completion.
    """

    __slots__ = (
        "context",
        "tracer",
        "control",
        "eval_cache",
        "seen",
        "collected",
        "stats",
        "traces",
        "levels_evaluated",
        "restarts",
    )

    def __init__(self, context, tracer=NULL_TRACER, control=None):
        self.context = context
        self.tracer = tracer
        self.control = control
        self.eval_cache = context.eval_cache
        self.seen = set()
        self.collected = []
        self.stats = []
        self.traces = []
        self.levels_evaluated = 0
        self.restarts = 0

    def run_plan(self, plan, label, **kwargs):
        """Execute one plan under this session's tracer, recording stats."""
        control = self.control
        if control is not None:
            control.check()
            kwargs.setdefault("checkpoint", control.check)
        result = run_plan_traced(
            self.context, plan, label, self.tracer, self.traces, **kwargs
        )
        self.stats.append(result.stats)
        self.levels_evaluated += 1
        return result


@dataclass
class TopKResult:
    """Outcome of a top-K evaluation."""

    algorithm: str
    query: object
    k: int
    scheme: object
    answers: list  # top-K ScoredAnswer, best first
    relaxations_used: int  # schedule levels walked / encoded
    levels_evaluated: int  # plans actually executed (DPO > 1, SSO/Hybrid ≥ 1)
    restarts: int = 0
    stats: list = field(default_factory=list)  # ExecutionStats per plan run
    traces: list = field(default_factory=list)  # LevelTrace per run (traced)
    shard_rounds: int = 0  # coordinated scatter rounds (sharded execution)
    shards_pruned: int = 0  # shards retired by the maxScoreGrowth bound

    def nodes(self):
        return [answer.node for answer in self.answers]

    def node_ids(self):
        return [answer.node_id for answer in self.answers]

    def __repr__(self):
        return "TopKResult(%s, k=%d, answers=%d, relaxations=%d)" % (
            self.algorithm,
            self.k,
            len(self.answers),
            self.relaxations_used,
        )


def begin_topk_metrics(context):
    """Open a metrics window for one ``top_k`` call.

    Returns an opaque token for :func:`record_topk_metrics`, or None when
    the process registry is disabled — the disabled path costs one
    attribute check, mirroring ``NULL_TRACER``.  The token captures the
    start time and the IR engine's lifetime counters so only this query's
    *deltas* get folded into the shared registry.
    """
    if not REGISTRY.enabled:
        return None
    return (
        perf_counter(),
        context.ir.metrics_snapshot(),
        context.eval_cache.metrics_snapshot(),
    )


def record_topk_metrics(context, result, token):
    """Close a metrics window: fold one evaluation into the registry.

    Records, per algorithm, the query count, levels explored, answers
    returned, restarts, and a wall-time histogram — plus the IR engine's
    cache and postings deltas accumulated while the window was open.
    Returns ``result`` so strategies can fold this into their return
    statement.
    """
    if token is None:
        return result
    started, ir_before, eval_before = token
    seconds = perf_counter() - started
    algorithm = result.algorithm.lower()
    folded = {
        "topk.%s.queries" % algorithm: 1,
        "topk.%s.levels_evaluated" % algorithm: result.levels_evaluated,
        "topk.%s.answers_returned" % algorithm: len(result.answers),
    }
    if result.restarts:
        folded["topk.%s.restarts" % algorithm] = result.restarts
    for key, value in context.ir.metrics_snapshot().items():
        delta = value - ir_before[key]
        if delta:
            folded[key] = delta
    for key, value in context.eval_cache.metrics_snapshot().items():
        delta = value - eval_before[key]
        if delta:
            folded[key] = delta
    REGISTRY.inc_many(folded)
    REGISTRY.observe("topk.%s.seconds" % algorithm, seconds)
    return result


def run_plan_traced(context, plan, label, tracer, traces, **kwargs):
    """Execute one plan, capturing a per-level trace when tracing is on.

    Shared by every top-K strategy: with a live tracer, the plan runs
    against a fresh per-level :class:`Tracer` whose spans are merged into
    the query-wide one and recorded as a :class:`LevelTrace` in ``traces``;
    with the null tracer this is exactly one extra ``enabled`` check.
    This is also the ``level_executed`` event seam — one emission per plan
    execution, gated on the hub's no-listener fast path.
    """
    if not tracer.enabled:
        result = context.executor.run(plan, **kwargs)
    else:
        level_tracer = Tracer()
        result = context.executor.run(plan, tracer=level_tracer, **kwargs)
        tracer.merge(level_tracer)
        traces.append(
            LevelTrace(
                label=label,
                spans=level_tracer.snapshot()["spans"],
                stats=result.stats,
                operators=tuple(result.operators or ()),
            )
        )
    if HUB.active:
        HUB.emit(
            "level_executed",
            {"label": label, "stats": result.stats.as_dict()},
        )
    return result


def combined_level_cutoff(schedule, reached_level, contains_count):
    """The §5.1 pruning rule for the combined scheme.

    Once levels ``0..reached_level`` hold at least K answers, any further
    level whose structural score is more than ``m`` (the number of contains
    predicates, each of weight 1) below that of ``reached_level`` cannot
    contribute a top-K answer. Returns the last level worth evaluating.
    """
    reached_score = schedule.structural_score(reached_level)
    cutoff = reached_level
    for index in range(reached_level + 1, len(schedule) + 1):
        if schedule.structural_score(index) <= reached_score - contains_count:
            break
        cutoff = index
    return cutoff
