"""Shared machinery for the top-K algorithms (Fig. 7 architecture).

A :class:`QueryContext` bundles everything the algorithms share per
document: the IR engine, corpus statistics, the penalty model, the
selectivity estimator, the plan executor, and the bounded
:class:`~repro.compiled.PlanCache` of compiled queries.  A
:class:`Strategy` is a *stateless* policy over a context: the one
:meth:`Strategy.top_k` body compiles (or fetches) an immutable
:class:`~repro.compiled.CompiledQuery` and hands the strategy's loop a
:class:`Scatter` carrying every piece of per-query mutable state, so one
strategy instance is safely shareable across threads.

Strategies are written against *sources* (DESIGN §14.2): the contexts
whose executors run a query's plans.  A plain context is its own single
source; the sharded coordinator (:mod:`repro.sharding`) lists one per
shard.  The :class:`Scatter` owns everything that differs with the number
of sources — an :class:`ExecutionSession` each, where a level's plan runs
(the calling thread for one source, the coordinator's thread pool for
several), re-addressing answers to the ids callers see, and the §5.2.1
ceiling rule that retires a source which can no longer reach the top K —
so each loop (the level walk in :mod:`repro.topk.dpo`, the encoded-plan
loop in :mod:`repro.topk.sso`) is written once and is sharded for free.
"""

from __future__ import annotations

import heapq
from concurrent.futures import wait
from dataclasses import dataclass, field
from time import perf_counter

from repro.backend import as_backend
from repro.compiled import PlanCache, cached_compile, compile_query
from repro.obs.events import HUB
from repro.obs.metrics import REGISTRY
from repro.obs.trace import LevelTrace
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.plans.eval_cache import EvaluationCache
from repro.plans.executor import PlanExecutor
from repro.rank.schemes import STRUCTURE_FIRST
from repro.rank.scores import AnswerScore
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

    ``sources`` lists the contexts a query's plans execute on — here the
    context itself.  ``readdress(source_index, node)`` maps a source-local
    answer node to the id space callers see; None because a plain
    context's ids already are that space.
    """

    readdress = None

    def __init__(self, document, ir_engine=None, statistics=None,
                 weights=UNIFORM_WEIGHTS, plan_cache_size=None):
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
        self.plan_cache = PlanCache(plan_cache_size)
        self._bind_execution()
        backend.subscribe(self._on_backend_growth)

    def _bind_execution(self):
        """Build what runs plans: evaluation cache, executor, sources."""
        self.eval_cache = EvaluationCache()
        self.executor = PlanExecutor(self.backend, self.ir,
                                     eval_cache=self.eval_cache)
        self.sources = (self,)

    def _on_backend_growth(self, backend, start_id, end_id):
        """Drop derived caches after the backend absorbed an append.

        The backend has already extended its index and statistics over the
        new id range; what remains stale here are the compiled plans and
        the memoized pools / join candidates / contains probes, all keyed
        by node id and document content.
        """
        self.plan_cache.invalidate()
        self.eval_cache.clear()

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
    """The mutable state of one top-K evaluation on one source.

    The :class:`Scatter` creates one per source, so nothing about the
    query ever lands on the shared strategy object or the shared context.
    The fields are a tracer, the cross-level answer-id dedup set (in the
    source's own ids), and the per-plan stats, traces and counter the
    :class:`TopKResult` reports.

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
        "seen",
        "stats",
        "traces",
        "levels_evaluated",
    )

    def __init__(self, context, tracer=NULL_TRACER, control=None):
        self.context = context
        self.tracer = tracer
        self.control = control
        self.seen = set()
        self.stats = []
        self.traces = []
        self.levels_evaluated = 0

    def run_plan(self, plan, label, **kwargs):
        """Execute one plan on this source, recording stats and traces.

        With a live tracer the plan runs against a fresh per-level
        :class:`Tracer` whose spans are merged into the session's and kept
        as a :class:`LevelTrace`; with the null tracer this is exactly one
        extra ``enabled`` check.  This is also the ``level_executed`` event
        seam — one emission per plan execution, gated on the hub's
        no-listener fast path.
        """
        control = self.control
        if control is not None:
            control.check()
            kwargs.setdefault("checkpoint", control.check)
        executor = self.context.executor
        tracer = self.tracer
        if not tracer.enabled:
            result = executor.run(plan, **kwargs)
        else:
            level_tracer = Tracer()
            result = executor.run(plan, tracer=level_tracer, **kwargs)
            tracer.merge(level_tracer)
            self.traces.append(
                LevelTrace(
                    label=label,
                    spans=level_tracer.snapshot()["spans"],
                    stats=result.stats,
                    operators=tuple(result.operators),
                )
            )
        if HUB.active:
            HUB.emit(
                "level_executed",
                {"label": label, "stats": result.stats.as_dict()},
            )
        self.stats.append(result.stats)
        self.levels_evaluated += 1
        return result


class Scatter:
    """One top-K evaluation's plan runs over its context's 1..N sources.

    Everything that differs with the number of sources lives here, so the
    strategy loops never ask whether they are sharded:

    - **sessions** — one :class:`ExecutionSession` (dedup set, stats,
      traces, plan counter) per source;
    - **transport** — :meth:`run` executes a plan on every still-runnable
      source: in the calling thread for one, on the context's thread pool
      for several, and sequentially under a live tracer (the IR engines
      share the query's tracer, which is not thread-safe) with each
      source's spans merged under a ``shard N`` span;
    - **addressing** — ``readdress`` is the context's hook taking a
      source-local answer node to the ids callers see (None for a plain
      context: no wrapper, no translation);
    - **retirement** — :meth:`retire` is the §5.2.1 ``maxScoreGrowth``
      bound lifted from tuples to sources: a source whose best possible
      next-level answer sorts strictly below the current K-th is never
      asked for another level.  It applies from two sources up — with one,
      retiring it would only restate the walk's own §5.1 cutoff, and a
      plain context walks exactly the levels the paper's DPO does.

    ``coordinated`` is "two or more sources"; ``rounds`` / ``pruned`` count
    coordinated rounds and retired sources (both stay 0 for a single
    source: nothing was coordinated).
    """

    __slots__ = (
        "context",
        "compiled",
        "tracer",
        "coordinated",
        "sessions",
        "readdress",
        "runnable",
        "rounds",
        "pruned",
        "_ceilings",
    )

    def __init__(self, context, compiled, tracer=NULL_TRACER, control=None):
        sources = context.sources
        self.context = context
        self.compiled = compiled
        self.tracer = tracer
        self.coordinated = len(sources) > 1
        # A single source records straight into the query's tracer; several
        # are each handed a private one per traced round (see ``run``).
        session_tracer = NULL_TRACER if self.coordinated else tracer
        self.sessions = [
            ExecutionSession(source, tracer=session_tracer, control=control)
            for source in sources
        ]
        self.readdress = context.readdress
        self.runnable = list(range(len(sources)))
        self.rounds = 0
        self.pruned = 0
        self._ceilings = None

    def run(self, plan, label, per_source=None, **kwargs):
        """Run ``plan`` on every runnable source: ``[(index, result)]``.

        ``per_source(session)`` returns the executor arguments that differ
        by source (its dedup set, its pool restrictions); it is called on
        the thread that runs that source's plan.  ``kwargs`` are shared.
        """
        if not self.coordinated:
            return [(0, self._run_source(0, plan, label, per_source, kwargs))]
        self.rounds += 1
        runnable = self.runnable
        tracer = self.tracer
        if tracer.enabled:
            results = []
            for index in runnable:
                session = self.sessions[index]
                session.tracer = source_tracer = Tracer()
                try:
                    with tracer.span("shard %d" % index):
                        results.append(self._run_source(
                            index, plan, label, per_source, kwargs
                        ))
                finally:
                    session.tracer = NULL_TRACER
                tracer.merge(source_tracer)
        elif len(runnable) == 1:
            results = [
                self._run_source(runnable[0], plan, label, per_source, kwargs)
            ]
        else:
            pool = self.context.thread_pool()
            futures = [
                pool.submit(
                    self._run_source, index, plan, label, per_source, kwargs
                )
                for index in runnable
            ]
            # Every source must have stopped before an error leaves this
            # call: the caller drops the corpus read lock on the way out,
            # and a plan still running then would race an ingest.  The
            # sources share one QueryControl, so once one has timed out
            # the rest stop within a CHECKPOINT_STRIDE.
            wait(futures)
            results = [future.result() for future in futures]
        return list(zip(runnable, results))

    def _run_source(self, index, plan, label, per_source, kwargs):
        """Execute one source's plan for this round, in the current thread."""
        session = self.sessions[index]
        if per_source is not None:
            kwargs = {**kwargs, **per_source(session)}
        if self.coordinated:
            label = "shard %d %s" % (index, label)
        return session.run_plan(plan, label, **kwargs)

    def retire(self, answers, k, scheme, next_structural):
        """Retire sources that can no longer place an answer in the top K.

        ``answers`` holds at least K scored answers; ``next_structural`` is
        the next level's structural score (identical across sources).  A
        source's best possible future answer is that score plus its
        keyword ceiling (``context.keyword_ceilings``); the source is done
        when that sorts strictly below the current K-th.  Ties are kept —
        a tied future answer can still win on node id — so retiring never
        changes answers.
        """
        if not self.coordinated:
            return
        if self._ceilings is None:
            self._ceilings = self.context.keyword_ceilings(self.compiled)
        kth_key = heapq.nlargest(
            k, (scheme.sort_key(answer.score) for answer in answers)
        )[-1]
        still_runnable = []
        for index in self.runnable:
            ceiling = AnswerScore(next_structural, self._ceilings[index])
            if scheme.sort_key(ceiling) < kth_key:
                self.pruned += 1
            else:
                still_runnable.append(index)
        self.runnable = still_runnable

    def result(self, algorithm, k, scheme, answers, relaxations_used,
               restarts=0):
        """The :class:`TopKResult`, per-source bookkeeping summed."""
        sessions = self.sessions
        return TopKResult(
            algorithm=algorithm,
            query=self.compiled.tpq,
            k=k,
            scheme=scheme,
            answers=answers,
            relaxations_used=relaxations_used,
            levels_evaluated=sum(
                session.levels_evaluated for session in sessions
            ),
            restarts=restarts,
            stats=[stat for session in sessions for stat in session.stats],
            traces=[item for session in sessions for item in session.traces],
            shard_rounds=self.rounds,
            shards_pruned=self.pruned,
        )


class Strategy:
    """A stateless top-K policy over a shared context.

    Subclasses set ``name`` and implement ``execute(compiled, scatter, k,
    scheme)``; :meth:`top_k` is the one body every algorithm is entered
    through, whatever the number of sources.
    """

    name = None

    def __init__(self, context):
        self._context = context

    def top_k(self, query, k, scheme=STRUCTURE_FIRST, max_relaxations=None,
              tracer=NULL_TRACER, control=None):
        """Return the top-K answers of ``query`` under ``scheme``."""
        context = self._context
        metrics_token = begin_topk_metrics(context)
        with tracer.span("compile"):
            compiled = context.compile(query, max_relaxations=max_relaxations)
        scatter = Scatter(context, compiled, tracer=tracer, control=control)
        with tracer.span("execute"):
            result = self.execute(compiled, scatter, k, scheme)
        return record_topk_metrics(context, result, metrics_token)

    def execute(self, compiled, scatter, k, scheme=STRUCTURE_FIRST):
        """Run this strategy's loop over a compiled artifact (stateless)."""
        raise NotImplementedError


@dataclass
class TopKResult:
    """Outcome of a top-K evaluation."""

    algorithm: str
    query: object
    k: int
    scheme: object
    answers: list  # top-K ScoredAnswer, best first
    relaxations_used: int  # schedule levels walked / encoded
    levels_evaluated: int  # plans actually executed, summed over sources
    restarts: int = 0
    stats: list = field(default_factory=list)  # ExecutionStats per plan run
    traces: list = field(default_factory=list)  # LevelTrace per run (traced)
    shard_rounds: int = 0  # coordinated scatter rounds (two or more sources)
    shards_pruned: int = 0  # sources retired by the maxScoreGrowth bound

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
    cache and postings deltas accumulated while the window was open, and
    the ``shards.*`` counters of a coordinated evaluation.  Returns
    ``result`` so the caller can fold this into its return statement.
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
    if result.shard_rounds:
        folded["shards.rounds"] = result.shard_rounds
        folded["shards.pruned"] = result.shards_pruned
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
