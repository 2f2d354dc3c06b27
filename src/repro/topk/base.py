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
from repro.obs.metrics import REGISTRY
from repro.obs.trace import LevelTrace
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.plans.eval_cache import EvaluationCache
from repro.plans.executor import STRICT, PlanExecutor
from repro.rank.schemes import STRUCTURE_FIRST
from repro.rank.scores import AnswerScore
from repro.relax.penalties import UNIFORM_WEIGHTS, PenaltyModel
from repro.stats.selectivity import SelectivityEstimator


class QueryContext:
    """Per-backend evaluation context shared by all top-K algorithms.

    Accepts a :class:`~repro.backend.base.StorageBackend`, a plain
    :class:`~repro.xmltree.document.Document`, or a
    :class:`~repro.collection.Corpus` (bare sources are wrapped through
    :func:`~repro.backend.as_backend`).  Everything physical — candidate
    ids, joins, postings, statistics — is reached through the backend
    seam: the context's ``statistics`` attribute *is* the backend, which
    serves the full counts surface.  Bound to a growable backend, the context
    needs no ingest hook: the backend folds an ingest into its own index
    and statistics, and the two caches derived from them here — the plan
    cache (whose schedules' penalties depend on corpus counts) and the
    evaluation cache — fence on ``backend.version`` at their next probe
    (:func:`~repro.compiled.cached_compile`, :class:`Scatter`).

    ``rwlock`` is the context's read/write discipline: queries hold the
    read side, ingest holds the write side for the whole splice-and-extend
    transaction.  The lock *is* the backend's lock, so every context over
    one backend shares a single discipline; a plain document never
    mutates, so its private lock is uncontended.

    ``sources`` lists the contexts a query's plans execute on — here the
    context itself.  ``readdress(source_index, node_id)`` maps a
    source-local answer id to the id space callers see; None because a
    plain context's ids already are that space.  Either way the context's
    ``backend.node`` builds an answer's view when a caller reads it.
    """

    readdress = None

    def __init__(self, document, ir_engine=None, weights=UNIFORM_WEIGHTS,
                 plan_cache_size=None):
        backend = as_backend(document, ir_engine=ir_engine)
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

    def _bind_execution(self):
        """Build what runs plans: evaluation cache, executor, sources."""
        self.eval_cache = EvaluationCache()
        self.executor = PlanExecutor(self.backend, self.ir,
                                     eval_cache=self.eval_cache)
        self.sources = (self,)

    def compile(self, query, max_relaxations=None):
        """Return the :class:`~repro.compiled.CompiledQuery` for a request.

        Fronted by the bounded, backend-version-fenced plan cache: a warm
        hit returns the shared immutable artifact without touching the
        schedule or plan builders.
        """
        return cached_compile(self, compile_query, query, max_relaxations)

    def schedule(self, query, max_steps=None):
        """Return (and cache) the relaxation schedule for a query."""
        return self.compile(query, max_relaxations=max_steps).schedule


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
        extra ``enabled`` check.
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
      for several.  Traced or not, the path is the same: a traced round
      hands each source a private :class:`Tracer`, which records its
      ``shard N`` span, and merges them into the query's afterwards;
    - **addressing** — ``readdress`` is the context's hook taking a
      source-local answer id to the id callers see (None for a plain
      context: no translation);
    - **retirement** — :meth:`retire` is the §5.2.1 ``maxScoreGrowth``
      bound lifted from tuples to sources: a source whose best possible
      next-level answer sorts strictly below the current K-th is never
      asked for another level.  It applies from two sources up — with one,
      retiring it would only restate the walk's own §5.1 cutoff, and a
      plain context walks exactly the levels the paper's DPO does.

    ``coordinated`` is "two or more sources"; ``rounds`` / ``pruned`` count
    coordinated rounds and retired sources (both stay 0 for a single
    source: nothing was coordinated).

    Creating a scatter fences every source's evaluation cache on the
    version of the context the query came in through: for a sharded
    coordinator the sum of the shard versions, since an ingest into any
    shard moves the corpus-wide idf every shard's ``contains`` scores use.
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
        version = context.backend.version
        for source in sources:
            source.eval_cache.fence(version)
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
            for index in runnable:
                self.sessions[index].tracer = Tracer()
        if len(runnable) == 1:
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
        if tracer.enabled:
            for index in runnable:
                tracer.merge(self.sessions[index].tracer)
        return list(zip(runnable, results))

    def _run_source(self, index, plan, label, per_source, kwargs):
        """Execute one source's plan for this round, in the current thread.

        A coordinated source runs inside a ``shard N`` span of its own
        session's tracer (the null tracer when the query is untraced).
        """
        session = self.sessions[index]
        span = NULL_TRACER.span(label)
        if self.coordinated:
            span = session.tracer.span("shard %d" % index)
            label = "shard %d %s" % (index, label)
        with span:
            if per_source is not None:
                kwargs = {**kwargs, **per_source(session)}
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

    Subclasses set ``name`` and ``_mode`` (the executor mode every plan of
    theirs runs in, which picks the operator) and implement
    ``execute(compiled, scatter, k, scheme)``; :meth:`top_k` is the one
    body every algorithm is entered through, whatever the number of
    sources.
    """

    name = None
    _mode = None

    def __init__(self, context):
        self._context = context

    def top_k(self, query, k, scheme=STRUCTURE_FIRST, max_relaxations=None,
              tracer=NULL_TRACER, control=None):
        """Return the top-K answers of ``query`` under ``scheme``.

        The one place a query's counts reach observers.  Each source's IR
        engine and evaluation cache keep lifetime ints only; a live
        ``tracer`` gets their increments over compile + execute (exact: a
        traced query holds the write lock).  At the end the registry gets
        the query's own counts (:func:`_record_query`) and what the
        sources counted since their last fold
        (:meth:`~repro.obs.metrics.MetricsRegistry.fold_lifetime`, exact
        under concurrency).
        """
        context = self._context
        started = perf_counter()
        components = [
            part for source in context.sources
            for part in (source.ir, source.eval_cache)
        ]
        before = None
        if tracer.enabled:
            before = summed(part.metrics_snapshot() for part in components)
        with tracer.span("compile"):
            compiled = context.compile(query, max_relaxations=max_relaxations)
        scatter = Scatter(context, compiled, tracer=tracer, control=control)
        with tracer.span("execute"):
            result = self.execute(compiled, scatter, k, scheme)
        if before is not None:
            after = summed(part.metrics_snapshot() for part in components)
            for key, value in after.items():
                delta = value - before.get(key, 0)
                if delta:
                    tracer.count(key, delta)
        if REGISTRY.enabled:
            operator = "twig" if self._mode == STRICT else "binary"
            _record_query(result, operator, perf_counter() - started)
        REGISTRY.fold_lifetime(components)
        return result

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


def _record_query(result, operator, seconds):
    """Fold one finished evaluation's own counts into the registry.

    Per algorithm: the query count, levels explored, answers returned,
    restarts and a wall-time histogram; the ``shards.*`` counters of a
    coordinated evaluation; and every plan run's :class:`ExecutionStats` —
    additive fields as ``executor.*`` counters next to
    ``executor.plans_executed`` and ``plan.physical.<operator>``,
    ``max_intermediate`` as a high-water-mark gauge.
    """
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
    if result.stats:
        folded["executor.plans_executed"] = len(result.stats)
        folded["plan.physical." + operator] = len(result.stats)
        for stats in result.stats:
            for key, value in stats.as_dict().items():
                if value and key != "max_intermediate":
                    key = "executor." + key
                    folded[key] = folded.get(key, 0) + value
        REGISTRY.set_gauge_max("executor.max_intermediate", max(
            stats.max_intermediate for stats in result.stats
        ))
    REGISTRY.inc_many(folded)
    REGISTRY.observe("topk.%s.seconds" % algorithm, seconds)


def summed(counters):
    """Count dicts (one per source) added key by key."""
    totals = {}
    for counts in counters:
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    return totals


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
