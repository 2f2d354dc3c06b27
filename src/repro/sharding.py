"""Scatter-gather top-K over a :class:`~repro.backend.sharded.ShardedBackend`.

The merge design (DESIGN §14) keeps per-shard execution *identical* to
single-shard execution — same plans, same executor, same schedules, same
(globally weighted) scores — so the coordinator only reasons about scores:

- :class:`ShardedQueryContext` mirrors :class:`~repro.topk.base.
  QueryContext` for the coordinator (global statistics, penalties,
  estimator, plan cache) and owns one ordinary ``QueryContext`` per shard,
  each bound to a :class:`~repro.backend.sharded.ShardView` (shard-local
  storage, corpus-wide statistics).  A query compiles **once**, on the
  coordinator: penalties and schedules derive from aggregate statistics,
  so the one :class:`~repro.compiled.CompiledQuery` artifact is valid on
  every shard.
- :class:`ShardedStrategy` wraps one of the five strategies.  Walking
  strategies (DPO, IR-first, the naive baseline) run *coordinated rounds*:
  every active shard executes the same schedule level per round, and the
  merged distinct-answer count drives the exact control flow of the
  wrapped strategy's single-shard loop.  Encoded strategies (SSO, Hybrid)
  pick the level once from global selectivity estimates and scatter the
  encoded plan, restarting all shards together while the merged count
  stays under K.
- **Early termination** (the §5.2.1 ``maxScoreGrowth`` bound turned
  per-shard ceiling): before each further round, every shard's best
  possible future answer is bounded by the next level's structural score
  (identical across shards) plus a shard-local keyword ceiling (terms the
  shard has never indexed can never contribute).  A shard whose ceiling
  sorts strictly below the current global K-th answer is never asked for
  its next round — ``shards.pruned`` counts these, ``shards.rounds`` the
  coordinated rounds.  Pruning never changes answers: every answer a
  pruned shard could still produce sorts strictly below the final K-th.

Scatter runs on a per-context thread pool by default; an optional
``multiprocessing`` pool (:meth:`ShardedQueryContext.enable_process_scatter`)
ships the picklable :class:`~repro.compiled.CompiledQuery` to forked
workers for CPU-bound plan execution.  Traced queries always run shards
sequentially (a :class:`~repro.obs.Tracer` is not thread-safe) with each
shard's spans merged under a ``shard N`` span.

Known caveat: answers are byte-identical to the unsharded engine for
queries whose bindings never touch the virtual collection root (wildcard
root tags can bind it); the workload generator emits no such queries.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor

from repro.backend.sharded import GlobalNode
from repro.compiled import PlanCache, cached_compile, compile_query
from repro.errors import FleXPathError
from repro.ir.scoring import idf
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.plans.cost import MeasuredCostModel
from repro.plans.eval_cache import CACHE_NAMES
from repro.plans.executor import STRICT, ExecutionResult, ExecutionStats
from repro.rank.schemes import STRUCTURE_FIRST, rank_answers
from repro.rank.scores import AnswerScore, ScoredAnswer
from repro.relax.penalties import UNIFORM_WEIGHTS, PenaltyModel
from repro.stats.selectivity import SelectivityEstimator
from repro.topk.base import (
    ExecutionSession,
    QueryContext,
    TopKResult,
    begin_topk_metrics,
    combined_level_cutoff,
    record_topk_metrics,
)

#: Safety pad on the per-shard keyword ceiling: the ceiling is provably an
#: upper bound in real arithmetic; the pad absorbs any float-summation
#: reordering between the bound and the executor's accumulation, trading an
#: immeasurable amount of pruning for certainty.
_CEILING_EPSILON = 1e-9


class AggregateEvalCache:
    """The coordinator-facing view over the per-shard evaluation caches.

    Serves the :class:`~repro.engine.Engine` surface — the ``enabled``
    kill switch fans out, ``info()``/``metrics_snapshot()`` sum — while
    all actual memoization stays shard-local (keys are shard-local node
    ids, which must never mix).
    """

    def __init__(self, caches):
        self._caches = list(caches)

    @property
    def enabled(self):
        return all(cache.enabled for cache in self._caches)

    @enabled.setter
    def enabled(self, value):
        for cache in self._caches:
            cache.enabled = value

    def clear(self):
        for cache in self._caches:
            cache.clear()

    def entry_count(self):
        return sum(cache.entry_count() for cache in self._caches)

    def info(self):
        totals = {
            "entries": 0,
            "max_entries": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalidations": 0,
        }
        for cache in self._caches:
            for key, value in cache.info().items():
                totals[key] += value
        return totals

    def metrics_snapshot(self):
        totals = dict.fromkeys(
            ["eval_cache.%s.%s" % (name, kind)
             for name in CACHE_NAMES for kind in ("hits", "misses")]
            + ["eval_cache.flushes"],
            0,
        )
        for cache in self._caches:
            for key, value in cache.metrics_snapshot().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def __repr__(self):
        return "AggregateEvalCache(shards=%d, entries=%d)" % (
            len(self._caches), self.entry_count()
        )


class ShardedQueryContext:
    """Coordinator context plus one ordinary QueryContext per shard.

    Quacks like :class:`~repro.topk.base.QueryContext` everywhere the
    engine, session, and observability layers look: ``backend`` /
    ``rwlock`` / ``ir`` / ``statistics`` /
    ``penalties`` / ``estimator`` / ``eval_cache`` / ``plan_cache`` /
    ``compile`` / ``schedule`` / ``attach_tracer``.  ``document`` is None —
    no unified node table exists.
    """

    def __init__(self, backend, weights=UNIFORM_WEIGHTS,
                 plan_cache_size=None, cost_model=None):
        self.backend = backend
        self.document = None
        self.rwlock = backend.lock
        self.ir = backend.ir
        self.statistics = backend
        self.weights = weights
        self.penalties = PenaltyModel(self.statistics, self.ir, weights)
        self.estimator = SelectivityEstimator(self.statistics, self.ir)
        # The coordinator's cost model lowers plans against *aggregate*
        # statistics; shard contexts keep their own (feedback stays
        # shard-local and never feeds the coordinator's fingerprint).
        if cost_model is None:
            cost_model = MeasuredCostModel(self.statistics)
        self.cost_model = cost_model
        self.feedback = getattr(cost_model, "feedback", None)
        self.shard_contexts = [
            QueryContext(view, weights=weights) for view in backend.views()
        ]
        self.eval_cache = AggregateEvalCache(
            [context.eval_cache for context in self.shard_contexts]
        )
        self.executor = None
        self.plan_cache = PlanCache(plan_cache_size)
        self._thread_pool = None
        self.process_pool = None
        backend.subscribe(self._on_backend_growth)

    def _on_backend_growth(self, backend, start_id, end_id):
        # Shard contexts subscribed through their views and have already
        # dropped their own caches; the coordinator's plan cache (penalties
        # from aggregate statistics) and any forked worker pool (a frozen
        # pre-ingest snapshot of every shard) are what go stale here.
        self.plan_cache.invalidate()
        if self.feedback is not None:
            self.feedback.clear()
        if self.process_pool is not None:
            self.process_pool.close()
            self.process_pool = None

    def attach_tracer(self, tracer):
        # Fans out to every shard's IR engine through the aggregate.
        self.ir.set_tracer(tracer)

    def compile(self, query, max_relaxations=None, skip_useless_gamma=True):
        """One coordinator-compiled artifact, valid on every shard.

        Penalties and schedules derive from aggregate statistics, and a
        plan's node-id-free structure is corpus-independent, so the same
        immutable artifact drives all shards.  The plan cache fences on the
        backend version (the sum of child versions), so ingest into *any*
        shard fences every cached artifact.
        """
        return cached_compile(
            self, compile_query, query, max_relaxations, skip_useless_gamma
        )

    def schedule(self, query, max_steps=None, skip_useless_gamma=True):
        return self.compile(
            query,
            max_relaxations=max_steps,
            skip_useless_gamma=skip_useless_gamma,
        ).schedule

    # -- scatter pools --------------------------------------------------------

    def thread_pool(self):
        """The lazily built per-context scatter thread pool."""
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=len(self.shard_contexts),
                thread_name_prefix="shard-scatter",
            )
        return self._thread_pool

    def enable_process_scatter(self, processes=None):
        """Switch untraced scatter to a forked ``multiprocessing`` pool.

        Workers inherit the shard contexts via fork and execute shipped
        :class:`~repro.compiled.CompiledQuery` artifacts against their
        frozen corpus snapshot; the pool is disposed automatically when
        the backend grows (the snapshot is version-fenced per task, so a
        stale worker answer is detected and recomputed in-process).
        """
        if self.process_pool is None:
            self.process_pool = ProcessScatterPool(self, processes=processes)
        return self.process_pool

    def close(self):
        """Shut down scatter pools (idempotent)."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        if self.process_pool is not None:
            self.process_pool.close()
            self.process_pool = None


# -- process scatter ----------------------------------------------------------

#: Shard contexts a forked worker executes against.  Set in the parent
#: immediately before the fork so children inherit it; only one process
#: pool per Python process can be live at a time.
_PROCESS_SHARDS = None


def _process_worker(task):
    """Execute one shipped plan against this worker's forked shard.

    Returns lightweight ``(node_id, ss, ks, level, satisfied)`` rows — node
    views don't cross process boundaries — or None when the worker's
    corpus snapshot no longer matches the shipped version (parent re-runs
    in-process).
    """
    (shard_index, compiled, version, kind, level, k, scheme, mode,
     exclude, restrictions) = task
    context = _PROCESS_SHARDS[shard_index]
    if context.backend.version != version:
        return None
    if kind == "strict":
        plan = compiled.strict_physical(level)
    else:
        plan = compiled.encoded_physical(level)
    result = context.executor.run(
        plan,
        k=k,
        scheme=scheme,
        mode=mode,
        pool_restrictions=restrictions,
        exclude_answer_ids=exclude,
    )
    return [
        (
            answer.node_id,
            answer.score.structural,
            answer.score.keyword,
            answer.relaxation_level,
            tuple(answer.satisfied),
        )
        for answer in result.answers
    ]


class ProcessScatterPool:
    """Forked worker pool executing shipped CompiledQuery plans per shard."""

    def __init__(self, context, processes=None):
        import multiprocessing
        import os

        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:
            raise FleXPathError(
                "process scatter needs the fork start method"
            ) from None
        global _PROCESS_SHARDS
        _PROCESS_SHARDS = context.shard_contexts
        if processes is None:
            processes = min(
                len(context.shard_contexts), os.cpu_count() or 1
            )
        self._pool = mp_context.Pool(processes=processes)

    def run(self, tasks):
        """Map tasks over the workers; one answer-row list (or None) each."""
        return self._pool.map(_process_worker, tasks)

    def close(self):
        self._pool.terminate()
        self._pool.join()


# -- the strategy wrapper -----------------------------------------------------


class ShardedStrategy:
    """Scatter-gather adapter presenting one strategy over all shards.

    Shares the single-shard strategy's whole surface (``name``, ``top_k``
    signature, ``choose_level`` for SSO-style wraps) so the session layer,
    result cache, and engine cannot tell the difference.
    """

    def __init__(self, strategy_cls, context):
        self._cls = strategy_cls
        self._context = context
        # The template answers policy questions (choose_level) against the
        # coordinator's global estimator; per-shard instances serve
        # shard-local work (IR-first satisfier restrictions).
        self._template = strategy_cls(context)
        self._shard_strategies = [
            strategy_cls(shard_context)
            for shard_context in context.shard_contexts
        ]
        self.name = strategy_cls.name
        self._encoded = getattr(strategy_cls, "_mode", None) is not None
        self._naive = strategy_cls.__name__ == "NaiveRewriting"
        self._ir_first = strategy_cls.__name__ == "IRFirstDPO"

    def choose_level(self, schedule, k, scheme, contains_count):
        """Delegate to the wrapped strategy's policy (global statistics)."""
        return self._template.choose_level(schedule, k, scheme, contains_count)

    def top_k(self, query, k, scheme=STRUCTURE_FIRST, max_relaxations=None,
              tracer=NULL_TRACER, control=None):
        """Scatter the query over every shard; gather with early termination."""
        context = self._context
        metrics_token = begin_topk_metrics(context)
        with tracer.span("compile"):
            compiled = context.compile(query, max_relaxations=max_relaxations)
        sessions = [
            ExecutionSession(shard_context, tracer=NULL_TRACER,
                             control=control)
            for shard_context in context.shard_contexts
        ]
        with tracer.span("execute"):
            if self._encoded:
                result = self._execute_encoded(
                    compiled, sessions, k, scheme, tracer
                )
            else:
                result = self._execute_walk(
                    compiled, sessions, k, scheme, tracer
                )
        if REGISTRY.enabled:
            REGISTRY.inc_many({
                "shards.rounds": result.shard_rounds,
                "shards.pruned": result.shards_pruned,
            })
        return record_topk_metrics(context, result, metrics_token)

    # -- coordinated level walk (DPO / IR-first / naive) ----------------------

    def _execute_walk(self, compiled, sessions, k, scheme, tracer):
        """Round-per-level scatter replicating the wrapped walk's control flow.

        Reproduces DPO's loop (`repro.topk.dpo`) with the merged distinct
        count in place of the single-shard count — the counts are equal
        because answers partition by shard — and the naive baseline's
        all-levels best-per-node merge when wrapping it.
        """
        context = self._context
        backend = context.backend
        schedule = compiled.schedule
        contains_count = compiled.contains_count()
        shard_count = len(sessions)
        exclude_seen = not self._naive

        ceilings = self._keyword_ceilings(compiled)
        pruned = [False] * shard_count
        cutoff = len(schedule)
        reached_level = None
        collected = []  # DPO-style append merge
        best = {}  # naive best-per-global-node merge
        rounds = 0
        pruned_total = 0
        last_level = 0

        for level in range(len(schedule) + 1):
            if level > cutoff:
                break
            runnable = [
                index for index in range(shard_count) if not pruned[index]
            ]
            if not runnable:
                break
            rounds += 1
            last_level = level
            spec = {
                "kind": "strict",
                "level": level,
                "k": None,
                "mode": STRICT,
                "exclude": exclude_seen,
                "label": "level %d" % level,
                "restrictions_query": (
                    schedule.level(level).query if self._ir_first else None
                ),
            }
            results = self._round(
                runnable, sessions, compiled, spec, scheme, tracer
            )

            level_score = schedule.structural_score(level)
            for shard_index, result in zip(runnable, results):
                session = sessions[shard_index]
                for answer in result.answers:
                    if exclude_seen:
                        if answer.node_id in session.seen:
                            continue
                        session.seen.add(answer.node_id)
                    node = GlobalNode(
                        answer.node,
                        backend.translate_id(shard_index, answer.node_id),
                        shard_index,
                    )
                    scored = ScoredAnswer(
                        node=node,
                        score=AnswerScore(level_score, answer.score.keyword),
                        relaxation_level=level,
                        satisfied=answer.satisfied,
                    )
                    if exclude_seen:
                        collected.append(scored)
                    else:
                        current = best.get(node.node_id)
                        if current is None or scheme.sort_key(
                            scored.score
                        ) > scheme.sort_key(current.score):
                            best[node.node_id] = scored

            pool = collected if exclude_seen else list(best.values())
            count = len(pool)
            if exclude_seen and count >= k and reached_level is None:
                reached_level = level
                if scheme.requires_all_relaxations:
                    cutoff = len(schedule)
                elif scheme.keyword_headroom(contains_count) > 0:
                    cutoff = combined_level_cutoff(
                        schedule, reached_level, contains_count
                    )
                else:
                    cutoff = level

            # The bounded merge: a shard whose best possible next-round
            # answer sorts strictly below the global K-th is done.  Ties
            # are kept — a tied future answer can still win on node id.
            if level < cutoff and count >= k:
                kth_key = heapq.nlargest(
                    k, (scheme.sort_key(answer.score) for answer in pool)
                )[-1]
                next_ss = schedule.structural_score(level + 1)
                for shard_index in range(shard_count):
                    if pruned[shard_index]:
                        continue
                    ceiling_key = scheme.sort_key(
                        AnswerScore(next_ss, ceilings[shard_index])
                    )
                    if ceiling_key < kth_key:
                        pruned[shard_index] = True
                        pruned_total += 1

        answers = rank_answers(
            collected if exclude_seen else list(best.values()), scheme, k
        )
        return TopKResult(
            algorithm=self.name,
            query=compiled.tpq,
            k=k,
            scheme=scheme,
            answers=answers,
            relaxations_used=(
                len(schedule) if self._naive else last_level
            ),
            levels_evaluated=sum(
                session.levels_evaluated for session in sessions
            ),
            stats=[stat for session in sessions for stat in session.stats],
            traces=[item for session in sessions for item in session.traces],
            shard_rounds=rounds,
            shards_pruned=pruned_total,
        )

    # -- encoded-plan scatter (SSO / Hybrid) ----------------------------------

    def _execute_encoded(self, compiled, sessions, k, scheme, tracer):
        """Scatter the encoded plan; restart all shards together under K.

        The merged distinct count stops the restart loop exactly when the
        single-shard count would: the executor's threshold pruning never
        returns fewer than ``min(k, true count)`` answers, so the sum over
        shards reaches K precisely when the unsharded count does.  There
        are no rounds after the count reaches K, hence no K-th score to
        bound against — the ``maxScoreGrowth`` early-termination merge is
        a property of the level-walking strategies.
        """
        context = self._context
        backend = context.backend
        schedule = compiled.schedule
        contains_count = compiled.contains_count()
        shard_count = len(sessions)

        level = self._template.choose_level(schedule, k, scheme,
                                            contains_count)
        latest = [[] for _ in range(shard_count)]
        rounds = 0
        restarts = 0

        while True:
            runnable = list(range(shard_count))
            rounds += 1
            spec = {
                "kind": "encoded",
                "level": level,
                "k": k,
                "mode": self._cls._mode,
                "exclude": False,
                "label": "encoded@level %d" % level,
                "restrictions_query": None,
            }
            results = self._round(
                runnable, sessions, compiled, spec, scheme, tracer
            )
            for shard_index, result in zip(runnable, results):
                latest[shard_index] = [
                    ScoredAnswer(
                        node=GlobalNode(
                            answer.node,
                            backend.translate_id(
                                shard_index, answer.node_id
                            ),
                            shard_index,
                        ),
                        score=answer.score,
                        relaxation_level=answer.relaxation_level,
                        satisfied=answer.satisfied,
                    )
                    for answer in result.answers
                ]
            count = sum(len(answers) for answers in latest)
            if count >= k or level >= len(schedule):
                break
            level += 1
            restarts += 1
            for session in sessions:
                session.restarts += 1

        merged = [answer for answers in latest for answer in answers]
        answers = rank_answers(merged, scheme, k)
        return TopKResult(
            algorithm=self.name,
            query=compiled.tpq,
            k=k,
            scheme=scheme,
            answers=answers,
            relaxations_used=level,
            levels_evaluated=sum(
                session.levels_evaluated for session in sessions
            ),
            restarts=restarts,
            stats=[stat for session in sessions for stat in session.stats],
            traces=[item for session in sessions for item in session.traces],
            shard_rounds=rounds,
        )

    # -- one coordinated round ------------------------------------------------

    def _round(self, runnable, sessions, compiled, spec, scheme, tracer):
        """Run one round on every runnable shard; ExecutionResults in order.

        Three transports: sequential with span merging when traced (a
        Tracer is not thread-safe), the forked process pool when enabled
        (plans shipped, rows rehydrated), the context thread pool
        otherwise.
        """
        if tracer.enabled:
            out = []
            for shard_index in runnable:
                shard_tracer = Tracer()
                sessions[shard_index].tracer = shard_tracer
                try:
                    with tracer.span("shard %d" % shard_index):
                        out.append(
                            self._run_shard(
                                shard_index, sessions, compiled, spec, scheme
                            )
                        )
                finally:
                    sessions[shard_index].tracer = NULL_TRACER
                tracer.merge(shard_tracer)
            return out

        process_pool = self._context.process_pool
        if process_pool is not None:
            return self._round_in_processes(
                runnable, sessions, compiled, spec, scheme, process_pool
            )

        if len(runnable) == 1:
            return [
                self._run_shard(runnable[0], sessions, compiled, spec, scheme)
            ]
        pool = self._context.thread_pool()
        futures = [
            pool.submit(
                self._run_shard, shard_index, sessions, compiled, spec, scheme
            )
            for shard_index in runnable
        ]
        return [future.result() for future in futures]

    def _run_shard(self, shard_index, sessions, compiled, spec, scheme):
        """Execute one shard's plan for this round, in the current thread."""
        session = sessions[shard_index]
        kwargs = {"mode": spec["mode"]}
        if spec["kind"] == "strict":
            plan = compiled.strict_physical(spec["level"])
            if spec["exclude"]:
                kwargs["exclude_answer_ids"] = session.seen
        else:
            plan = compiled.encoded_physical(spec["level"])
            kwargs["k"] = spec["k"]
            kwargs["scheme"] = scheme
        restrictions = self._restrictions(shard_index, session, spec)
        if restrictions is not None:
            kwargs["pool_restrictions"] = restrictions
        return session.run_plan(
            plan, "shard %d %s" % (shard_index, spec["label"]), **kwargs
        )

    def _restrictions(self, shard_index, session, spec):
        """Shard-local IR-first satisfier restrictions for this round."""
        query = spec["restrictions_query"]
        if query is None:
            return None
        with session.tracer.span("ir_filter"):
            return self._shard_strategies[shard_index]._restrictions_for(query)

    def _round_in_processes(self, runnable, sessions, compiled, spec, scheme,
                            process_pool):
        """Ship this round's plans to the forked workers; rehydrate rows."""
        version = compiled.corpus_version
        tasks = []
        for shard_index in runnable:
            session = sessions[shard_index]
            exclude = (
                frozenset(session.seen)
                if spec["kind"] == "strict" and spec["exclude"]
                else None
            )
            tasks.append((
                shard_index,
                compiled,
                version,
                spec["kind"],
                spec["level"],
                spec["k"],
                scheme,
                spec["mode"],
                exclude,
                self._restrictions(shard_index, session, spec),
            ))
        rows_per_shard = process_pool.run(tasks)
        results = []
        for shard_index, rows in zip(runnable, rows_per_shard):
            if rows is None:
                # The forked snapshot predates this corpus version — the
                # subscription normally disposes the pool on growth, so
                # this is a cross-process ingest race; recompute here.
                results.append(
                    self._run_shard(
                        shard_index, sessions, compiled, spec, scheme
                    )
                )
                continue
            document = self._context.shard_contexts[shard_index].document
            answers = [
                ScoredAnswer(
                    node=document.node(node_id),
                    score=AnswerScore(ss, ks),
                    relaxation_level=level,
                    satisfied=frozenset(satisfied),
                )
                for node_id, ss, ks, level, satisfied in rows
            ]
            session = sessions[shard_index]
            session.levels_evaluated += 1
            session.stats.append(ExecutionStats())
            results.append(
                ExecutionResult(answers=answers, stats=ExecutionStats())
            )
        return results

    # -- the per-shard maxScoreGrowth ceiling ---------------------------------

    def _keyword_ceilings(self, compiled):
        """Per-shard upper bound on any answer's keyword score.

        An answer's keyword score sums, over the query's ``contains``
        predicates, idf-weighted averages of saturating term frequencies
        (:mod:`repro.ir.scoring`); relaxation only ever drops predicates.
        Per shard and predicate the score is therefore at most the idf
        mass of the terms the shard has indexed at all, over the total idf
        mass — with corpus-wide idf weights, so the bound (like the scores
        themselves) is shard-comparable.
        """
        backend = self._context.backend
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
