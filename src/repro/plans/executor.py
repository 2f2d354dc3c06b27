"""Plan execution: the shared machinery behind DPO, SSO and Hybrid (§5.2).

One executor runs a :class:`~repro.plans.plan.Plan` in one of three modes:

- ``"strict"`` — plain evaluation, no pruning, no score ordering. DPO runs
  the strict plan of each relaxation level this way.
- ``"sso"`` — after every join the intermediate tuple list is **sorted on
  score** so the ``threshold + maxScoreGrowth`` pruning of §5.2.2 can be
  applied; this resorting is exactly the bottleneck the paper attributes
  to SSO ("there is a fundamental tension between these two sort orders").
- ``"hybrid"`` — intermediate tuples are grouped into **buckets** keyed by
  the set of predicates they satisfied (the sequence of alternatives
  chosen). Within a bucket all tuples have the same structural score and
  stay sorted on node id by construction, so no sorting on scores ever
  happens; pruning works at bucket granularity (§5.2.3).

Pruning is conservative and never drops a potential top-K answer: a tuple
is discarded only when its optimistic completion (current score +
``maxScoreGrowth``) is strictly below the current K-th *guaranteed* score —
guarantees come from completed answers and from tuples whose remaining
joins are all optional.

Both operators work on node ids from seed to collect.  The binary pipeline
resolves a join's candidates set-at-a-time — one ``base id → candidate
ids`` table per alternative, filled by one structural merge
(:meth:`PlanExecutor._candidates`) — and then extends tuple by tuple with a
dict lookup.  A join whose binding nobody reads
(:meth:`~repro.plans.plan.Plan.existential`) is a semi-join instead: one
tuple out per tuple in, decided by a ``base id → bool`` table
(:meth:`PlanExecutor._semi_join`).  ``backend.node(id)`` is called for an
answer, for a ``contains`` probe the evaluation cache cannot answer, and for
an attribute predicate while a pool is filtered; nowhere else.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice
from operator import itemgetter

from repro.backend import as_backend
from repro.errors import EvaluationError
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import NULL_TRACER
from repro.plans.eval_cache import restriction_key
from repro.plans.lowering import twig_eligible
from repro.plans.plan import TWIG
from repro.rank.schemes import STRUCTURE_FIRST
from repro.rank.scores import AnswerScore, ScoredAnswer

STRICT = "strict"
SSO_MODE = "sso"
HYBRID_MODE = "hybrid"

#: Tolerance on the threshold-prune comparison.  A tuple's optimistic bound
#: (partial score + precomputed max-growth sum) and the guarantees feeding
#: the threshold (partial score + guaranteed-growth sum) accumulate the same
#: weights in different orders, so at an exact score tie the two can differ
#: by a few ulps — and a strict ``optimistic < threshold`` compare would
#: prune the K-th boundary answer against its own guarantee.  Score deltas
#: derive from penalty weights (unit scale), so one part in 10⁹ separates
#: genuinely distinct levels while absorbing reordering noise.
PRUNE_EPSILON = 1e-9

#: Input tuples between two ``checkpoint`` calls inside one join or one
#: ``contains`` filter.  A deadline that passes mid-join is noticed within
#: this many input tuples instead of at the next join boundary; at the
#: pipeline's ~1 µs per tuple that is a few milliseconds of overshoot.
CHECKPOINT_STRIDE = 4096

#: Sort key of a pipeline tuple ``(bindings, ss, ks, signature)`` for SSO.
_STRUCTURAL = itemgetter(1)

#: Id of the empty signature in every :class:`_Signatures`.
_NO_PARTS = 0


@dataclass
class ExecutionStats:
    """Operational counters for one plan execution.

    ``tuples_pruned`` counts only threshold / ``maxScoreGrowth`` prunes;
    tuples dropped because their answer node was already produced at an
    earlier relaxation level (DPO's §5.2.2 dedup) are counted separately in
    ``answers_deduped`` — the two mechanisms discard work for unrelated
    reasons and conflating them made the pruning figures unreadable.
    """

    tuples_produced: int = 0
    tuples_pruned: int = 0
    answers_deduped: int = 0
    tuples_failed: int = 0
    sort_operations: int = 0
    sorted_tuples: int = 0
    buckets_created: int = 0
    max_intermediate: int = 0
    answers_before_dedup: int = 0

    def note_intermediate(self, size):
        if size > self.max_intermediate:
            self.max_intermediate = size

    def as_dict(self):
        """Plain-dict view (JSON-safe; used by traces and benchmarks)."""
        return asdict(self)


@dataclass
class ExecutionResult:
    """Deduplicated scored answers plus execution counters.

    ``estimates`` are the plan's :class:`~repro.plans.lowering.OperatorEstimate`
    records (empty for a plan that was never lowered) and ``actuals`` the
    cardinalities this run observed, keyed ``(kind, var)``.  They stay off
    :class:`ExecutionStats` because the stats dataclass is folded additively
    into the metrics registry.
    """

    answers: list
    stats: ExecutionStats
    estimates: tuple
    actuals: dict

    @property
    def operators(self):
        """One JSON-safe dict per estimated operator: the lowering's
        ``estimate`` next to this run's ``actual`` (None where the operator
        did not run) — the raw material of ``explain --analyze``.  Built on
        access, so a run nobody inspects allocates none of it."""
        operators = []
        for op in self.estimates:
            entry = op.as_dict()
            entry["actual"] = self.actuals.get((op.kind, op.var))
            operators.append(entry)
        return operators


class _Score:
    """A reusable ``(structural, keyword)`` pair to hand ``scheme.sort_key``.

    The pipeline asks the scheme for a sort key per tuple when it prunes
    and per collision when it projects; one scratch instance per phase,
    overwritten before each call, stands in for the ``AnswerScore`` each of
    those calls would otherwise allocate.  ``sort_key`` returns a fresh
    tuple, so nothing aliases the scratch value.
    """

    __slots__ = ("structural", "keyword")

    def combined(self):
        return self.structural + self.keyword


class _Signatures:
    """One run's satisfied-predicate signatures, interned as small ints.

    A partial match carries the id, not the tuple of parts: extending a
    signature is one dict subscript per input tuple instead of one tuple
    concatenation per output tuple, and Hybrid's buckets hash an int
    instead of a tuple of tuples.  :meth:`PlanExecutor._collect` reads the
    parts back for the tuples that win an answer.
    """

    __slots__ = ("values", "_ids")

    def __init__(self):
        self.values = [()]  # id → tuple of parts; _NO_PARTS is the empty one
        self._ids = {(): _NO_PARTS}

    def intern(self, value):
        found = self._ids.get(value)
        if found is None:
            found = self._ids[value] = len(self.values)
            self.values.append(value)
        return found


class _Extension(dict):
    """Signature id → id of that signature plus one fixed part, on demand."""

    __slots__ = ("_signatures", "_part")

    def __init__(self, signatures, part):
        self._signatures = signatures
        self._part = (part,)

    def __missing__(self, signature):
        signatures = self._signatures
        extended = self[signature] = signatures.intern(
            signatures.values[signature] + self._part
        )
        return extended


class _RunState:
    """Per-``run`` inputs threaded through the phase helpers.

    Keeping these off the executor instance is what makes one executor
    reentrant: concurrent queries sharing a context each carry their own
    restrictions, dedup set, cache handle and signature table down the
    call stack instead of racing over shared attributes.
    """

    __slots__ = ("pools", "excluded", "cache", "signatures")

    def __init__(self, pools, excluded, cache):
        self.pools = pools
        self.excluded = excluded
        self.cache = cache
        self.signatures = _Signatures()


def _strides(tuples, checkpoint):
    """``tuples`` in ``CHECKPOINT_STRIDE`` slices, a checkpoint between each."""
    if checkpoint is None or len(tuples) <= CHECKPOINT_STRIDE:
        yield tuples
        return
    for start in range(0, len(tuples), CHECKPOINT_STRIDE):
        if start:
            checkpoint()
        yield tuples[start:start + CHECKPOINT_STRIDE]


def _best_per_key(tuples, key_of, scheme):
    """``{key: best-scoring tuple}`` over ``key_of(bindings)``, first-seen order.

    A tuple whose key is ``None`` is left out; on equal scores the earlier
    tuple stays.  Scores are only looked at where two tuples share a key —
    a sort key is computed per collision, never per tuple, and nothing but
    the winning tuple itself is held per key.
    """
    sort_key = scheme.sort_key
    score = _Score()
    best = {}
    ranks = {}  # sort key of best[key], from that key's first collision on
    for item in tuples:
        key = key_of(item[0])
        if key is None:
            continue
        held = best.setdefault(key, item)
        if held is item:
            continue
        rank = ranks.get(key)
        if rank is None:
            score.structural = held[1]
            score.keyword = held[2]
            rank = ranks[key] = sort_key(score)
        score.structural = item[1]
        score.keyword = item[2]
        challenger = sort_key(score)
        if challenger > rank:
            best[key] = item
            ranks[key] = challenger
    return best


def _candidates_of(backend, bases, pool, axis):
    """``base → id-sorted candidate ids`` for sorted ``bases``: one merge."""
    grouped = {}
    for base, candidate in backend.structural_join_ids(bases, pool, axis=axis):
        found = grouped.get(base)
        if found is None:
            grouped[base] = [candidate]
        else:
            found.append(candidate)
    filled = dict.fromkeys(bases, ())
    for base, found in grouped.items():
        filled[base] = tuple(found)
    return filled


def _always(_base):
    """The optional round of a semi-join: whatever is left matches."""
    return True


def _has_candidate(backend, bases, pool, axis):
    """``base → whether it has any candidate``: one probe per base."""
    filled = dict.fromkeys(bases, False)
    for base in backend.semi_join_ancestor_ids(bases, pool, axis=axis):
        filled[base] = True
    return filled


class PlanExecutor:
    """Executes plans against one StorageBackend + IR engine pair.

    Stateless across runs: every :meth:`run` builds a private
    :class:`_RunState`, so one executor instance serves any number of
    concurrent queries (the shared :class:`EvaluationCache` it probes is
    internally locked).

    ``source`` may be a :class:`~repro.backend.base.StorageBackend` or
    anything :func:`~repro.backend.as_backend` coerces (a bare document, a
    corpus); all candidate access goes through the backend seam.
    """

    def __init__(self, source, ir_engine=None, eval_cache=None):
        self._backend = as_backend(source, ir_engine=ir_engine)
        self._ir = ir_engine if ir_engine is not None else self._backend.ir
        self._eval_cache = eval_cache

    # -- public entry ---------------------------------------------------------

    def run(self, plan, k=None, scheme=STRUCTURE_FIRST, mode=STRICT,
            pool_restrictions=None, exclude_answer_ids=None,
            tracer=NULL_TRACER, checkpoint=None):
        """Execute ``plan`` and return deduplicated scored answers.

        ``k`` enables threshold pruning (sso/hybrid modes); answers are NOT
        truncated here — top-K selection is the algorithms' job.

        ``pool_restrictions`` optionally maps variables to sets of node ids
        their bindings must come from — the hook the IR-first strategy uses
        to seed structural matching with contains-satisfying elements
        (§5.1's "alternative possibility").

        ``exclude_answer_ids`` drops tuples whose distinguished binding is
        already a known answer, as soon as that binding exists — DPO's
        §5.2.2 trick for not recomputing the previous level's answers when
        evaluating the next relaxation.

        ``tracer`` receives one span per phase (seed / extend / checks /
        dedup / project / prune / sort / bucket / collect); the default
        no-op tracer makes an untraced run cost nothing extra.

        ``checkpoint`` is the session deadline/cancellation hook: a
        zero-argument callable invoked once before seeding, once per join
        and every :data:`CHECKPOINT_STRIDE` input tuples inside a join or a
        ``contains`` filter (the twig operator: once per variable while
        seeding and while filtering by ``contains``, then before the
        holistic join and before the score pass) — boundaries where
        abandoning a run cannot leave shared state half-mutated.  It aborts
        by raising (see :class:`~repro.session.QueryControl`); ``None``
        costs nothing.

        ``plan.operator`` picks the operator: the holistic twig join runs
        a ``TWIG`` plan in strict mode only, because threshold /
        ``maxScoreGrowth`` pruning needs the scored intermediates the
        holistic operator never materializes; every other run takes the
        binary pipeline.  A ``TWIG`` plan that is not
        :func:`~repro.plans.lowering.twig_eligible` is refused with an
        :class:`~repro.errors.EvaluationError`.
        """
        stats = ExecutionStats()
        cache = self._eval_cache
        run = _RunState(
            pools=pool_restrictions or {},
            excluded=exclude_answer_ids or (),
            cache=cache if cache is not None and cache.enabled else None,
        )
        eval_before = (
            run.cache.metrics_snapshot()
            if tracer.enabled and run.cache is not None
            else None
        )
        use_twig = plan.operator == TWIG and mode == STRICT
        if use_twig:
            if not twig_eligible(plan):
                raise EvaluationError(
                    "the twig operator cannot evaluate this plan: it has "
                    "alternatives, optional joins or promoted contains levels"
                )
            answers, actuals = self._run_twig(
                plan, run, stats, tracer, checkpoint
            )
        else:
            answers, actuals = self._run_binary(
                plan, k, scheme, mode, run, stats, tracer, checkpoint
            )
        if eval_before is not None:
            # Surface this run's cache activity in the trace: with a warm
            # cache the IR counters legitimately read zero, and the hits
            # are what explain --analyze should show instead.
            for key, value in run.cache.metrics_snapshot().items():
                delta = value - eval_before[key]
                if delta:
                    tracer.count(key, delta)
        if REGISTRY.enabled:
            # Fold this run's counters into the process registry: additive
            # fields become counters; max_intermediate is a high-water mark.
            folded = {
                "executor.plans_executed": 1,
                "plan.physical.twig" if use_twig else "plan.physical.binary": 1,
            }
            for key, value in stats.as_dict().items():
                if value and key != "max_intermediate":
                    folded["executor." + key] = value
            REGISTRY.inc_many(folded)
            REGISTRY.set_gauge_max(
                "executor.max_intermediate", stats.max_intermediate
            )
        return ExecutionResult(answers=answers, stats=stats,
                               estimates=plan.estimates, actuals=actuals)

    def _run_binary(self, plan, k, scheme, mode, run, stats, tracer,
                    checkpoint):
        """The classic pipeline: seed, then extend join by join.

        A partial match is a plain 4-tuple ``(bindings, ss, ks, signature)``
        whose ``bindings`` are the node ids of the variables somebody reads,
        in plan order (``None`` where an optional join found nothing or a
        dead variable was projected away; an existential join binds
        nothing); a node view is made only for a winning answer in
        :meth:`_collect`, for a ``contains`` probe the cache cannot answer,
        and for attribute predicates while a pool is filtered.
        """
        actuals = {}
        existential = self._existential(plan)
        var_positions = {plan.root_var: 0}
        for join, unread in zip(plan.joins, existential):
            if not unread:
                var_positions[join.var] = len(var_positions)
        projections = self._projections(plan, var_positions)

        growth_ss, growth_ks, guaranteed_ss, guaranteed_ok = plan.growth_tables()
        prune = k is not None and mode in (SSO_MODE, HYBRID_MODE)
        distinguished_pos = var_positions[plan.distinguished]
        answer_bound = plan.distinguished == plan.root_var
        sort_key = scheme.sort_key
        score = _Score()

        # Guarantees are tracked per prospective answer node: several tuples
        # guaranteeing the *same* answer must count once, or the threshold
        # would overestimate and prune genuine top-K answers.
        guaranteed_by_node = {}

        if checkpoint is not None:
            checkpoint()
        with tracer.span("seed"):
            tuples = self._seed(run, plan, stats)
        actuals[("seed-scan", plan.root_var)] = len(tuples)
        if run.excluded and plan.distinguished == plan.root_var:
            with tracer.span("dedup"):
                tuples = self._drop_known_answers(run, tuples, 0, stats)
        with tracer.span("checks"):
            tuples = self._apply_checks(
                run, plan, plan.root_var, tuples, var_positions, stats,
                checkpoint,
            )
        if plan.checks_by_var.get(plan.root_var):
            actuals[("contains-filter", plan.root_var)] = len(tuples)
        # Zero-join plans never enter the loop below; record the seeded and
        # checked population here so max_intermediate is meaningful for them.
        stats.note_intermediate(len(tuples))

        for index, join in enumerate(plan.joins):
            if checkpoint is not None:
                checkpoint()
            step = self._semi_join if existential[index] else self._extend
            with tracer.span("extend"):
                tuples = step(
                    run, join, tuples, var_positions, stats, checkpoint
                )
            actuals[(
                "semi-join" if existential[index] else "binary-join",
                join.var,
            )] = len(tuples)
            if run.excluded and join.var == plan.distinguished:
                with tracer.span("dedup"):
                    tuples = self._drop_known_answers(
                        run, tuples, var_positions[join.var], stats
                    )
            with tracer.span("checks"):
                tuples = self._apply_checks(
                    run, plan, join.var, tuples, var_positions, stats,
                    checkpoint,
                )
            if plan.checks_by_var.get(join.var):
                actuals[("contains-filter", join.var)] = len(tuples)
            with tracer.span("project"):
                tuples = self._project(tuples, projections[index], scheme)
            position = index + 1
            answer_bound = answer_bound or join.var == plan.distinguished

            if prune:
                # Register guarantees, then prune against the threshold.
                with tracer.span("prune"):
                    if guaranteed_ok[position] and answer_bound:
                        # (An answer node not bound yet has no safe key.)
                        sure_ss = guaranteed_ss[position]
                        for bindings, ss, ks, _signature in tuples:
                            node_id = bindings[distinguished_pos]
                            if node_id is None:
                                continue
                            score.structural = ss + sure_ss
                            score.keyword = ks
                            value = sort_key(score)[0]
                            current = guaranteed_by_node.get(node_id)
                            if current is None or value > current:
                                guaranteed_by_node[node_id] = value
                    if len(guaranteed_by_node) >= k:
                        limit = heapq.nlargest(
                            k, guaranteed_by_node.values()
                        )[-1] - PRUNE_EPSILON
                        more_ss = growth_ss[position]
                        more_ks = growth_ks[position]
                        kept = []
                        for item in tuples:
                            score.structural = item[1] + more_ss
                            score.keyword = item[2] + more_ks
                            if sort_key(score)[0] < limit:
                                stats.tuples_pruned += 1
                            else:
                                kept.append(item)
                        tuples = kept

            if mode == SSO_MODE:
                # SSO keeps intermediate answers sorted on score (§5.2.2).
                with tracer.span("sort"):
                    tuples.sort(key=_STRUCTURAL, reverse=True)
                stats.sort_operations += 1
                stats.sorted_tuples += len(tuples)
            elif mode == HYBRID_MODE:
                # Hybrid re-groups into score-homogeneous buckets instead.
                with tracer.span("bucket"):
                    buckets = {}
                    for item in tuples:
                        buckets.setdefault(item[3], []).append(item)
                    stats.buckets_created += len(buckets)
                    tuples = [
                        item for bucket in buckets.values() for item in bucket
                    ]

            stats.note_intermediate(len(tuples))

        with tracer.span("collect"):
            answers = self._collect(
                run, plan, tuples, var_positions, scheme, stats
            )
        return answers, actuals

    # -- the holistic twig operator ---------------------------------------------

    def _run_twig(self, plan, run, stats, tracer, checkpoint):
        """Evaluate a twig-eligible plan holistically (TwigStack-family).

        Instead of growing an intermediate tuple list join by join, match
        the whole twig with a constant number of stack-merge passes over
        the per-variable candidate pools (``twig_filter_ids`` through the
        backend seam), then recover per-answer keyword scores with a
        max-aggregation dynamic program over the filtered pools — the max
        over embeddings of a tree-shaped sum decomposes into independent
        branch maxima below each spine node plus a top-down prefix above.

        Produces exactly the answers/scores of the binary pipeline on the
        same plan: twig-eligible plans have single required alternatives
        and original-level checks, so every surviving answer carries the
        same constant structural score and signature, and the per-answer
        keyword score is the max over embeddings in both formulations.
        """
        backend = self._backend
        cache = run.cache
        satisfies, score = self._contains_probes(cache)
        actuals = {}

        # Twig shape: parent/axis per variable, parents-before-children.
        var_tags = {plan.root_var: plan.root_tag}
        var_attrs = {plan.root_var: plan.root_attr_predicates}
        parents = {plan.root_var: None}
        axes = {}
        order = [plan.root_var]
        for join in plan.joins:
            alt = join.alternatives[0]
            var_tags[join.var] = join.tag
            var_attrs[join.var] = join.attr_predicates
            parents[join.var] = alt.connect_var
            axes[join.var] = alt.axis
            order.append(join.var)

        with tracer.span("seed"):
            pools = {}
            for var in order:
                if checkpoint is not None:
                    checkpoint()
                pool = self._pool(
                    var_tags[var], var_attrs[var], run.pools.get(var), cache
                )
                pools[var] = pool
                stats.tuples_produced += len(pool)
        actuals[("seed-scan", plan.root_var)] = len(pools[plan.root_var])

        # Contains pre-filter: keep only satisfying nodes per variable and
        # remember each survivor's own keyword score (sum over its checks,
        # in check order — the same accumulation the pipeline performs).
        own = {}
        filtered_ids = {}
        with tracer.span("checks"):
            for var in order:
                checks = plan.checks_by_var.get(var, ())
                pool = pools[var]
                if checkpoint is not None:
                    checkpoint()
                if not checks:
                    filtered_ids[var] = pool
                    continue
                ids = []
                scores = {}
                for node_id in pool:
                    total = 0.0
                    alive = True
                    for check in checks:
                        if not satisfies(node_id, check.ftexpr):
                            alive = False
                            stats.tuples_failed += 1
                            break
                        total += score(node_id, check.ftexpr)
                    if alive:
                        ids.append(node_id)
                        scores[node_id] = total
                filtered_ids[var] = ids
                own[var] = scores
                actuals[("contains-filter", var)] = len(ids)

        distinguished = plan.distinguished
        if run.excluded:
            with tracer.span("dedup"):
                before = len(filtered_ids[distinguished])
                filtered_ids[distinguished] = [
                    node_id
                    for node_id in filtered_ids[distinguished]
                    if node_id not in run.excluded
                ]
                stats.answers_deduped += before - len(filtered_ids[distinguished])

        if checkpoint is not None:
            checkpoint()
        with tracer.span("twig"):
            final = backend.twig_filter_ids(
                filtered_ids, parents, axes, order
            )
        for join in plan.joins:
            actuals[("twig-join", join.var)] = len(final[join.var])
        stats.note_intermediate(sum(len(ids) for ids in final.values()))

        answer_ids = final[distinguished]
        if not answer_ids:
            stats.answers_before_dedup = 0
            return [], actuals

        # Keyword scores: max over full embeddings of the summed per-node
        # contains scores.  down[v][n] = best achievable in v's subtree
        # with v bound to n; the spine DP carries everything outside the
        # distinguished variable's subtree down to it.
        has_checks = bool(plan.checks_by_var)
        if has_checks:
            if checkpoint is not None:
                checkpoint()
            children = {var: [] for var in order}
            for var in order[1:]:
                children[parents[var]].append(var)

            down = {}
            branch_max = {}
            for var in reversed(order):
                base = own.get(var)
                totals = {
                    node_id: (base.get(node_id, 0.0) if base else 0.0)
                    for node_id in final[var]
                }
                per_child = {}
                for child in children[var]:
                    agg = backend.max_value_per_ancestor(
                        final[var], final[child], down[child],
                        axis=axes[child],
                    )
                    per_child[child] = agg
                    for node_id in final[var]:
                        totals[node_id] += agg[node_id]
                branch_max[var] = per_child
                down[var] = totals

            spine = [distinguished]
            while parents[spine[-1]] is not None:
                spine.append(parents[spine[-1]])
            spine.reverse()

            up = {spine[0]: {node_id: 0.0 for node_id in final[spine[0]]}}
            for parent_var, var in zip(spine, spine[1:]):
                base = own.get(parent_var)
                rest = {}
                for node_id in final[parent_var]:
                    total = up[parent_var][node_id]
                    if base:
                        total += base.get(node_id, 0.0)
                    for child in children[parent_var]:
                        if child == var:
                            continue
                        total += branch_max[parent_var][child][node_id]
                    rest[node_id] = total
                up[var] = backend.max_value_per_descendant(
                    final[parent_var], rest, final[var], axis=axes[var]
                )
            up_scores = up[distinguished]
            down_scores = down[distinguished]

        # Constant structural score and signature: every join matched its
        # single strict alternative, every check matched at level 0.
        ss = 0.0
        for join in plan.joins:
            ss += join.alternatives[0].delta
        signature = [(join.var, 0) for join in plan.joins]
        for var, checks in plan.checks_by_var.items():
            for check_index in range(len(checks)):
                signature.append(("contains", var, check_index, 0))
        satisfied = frozenset(signature)

        with tracer.span("collect"):
            answers = []
            for node_id in answer_ids:
                ks = (
                    up_scores[node_id] + down_scores[node_id]
                    if has_checks
                    else 0.0
                )
                answers.append(
                    ScoredAnswer(
                        node=backend.node(node_id),
                        score=AnswerScore(ss, ks),
                        relaxation_level=0,
                        satisfied=satisfied,
                    )
                )
            stats.answers_before_dedup = len(answers)
        return answers, actuals

    # -- phases -----------------------------------------------------------------

    def _contains_probes(self, cache):
        """``satisfies(node_id, ftexpr)`` and ``score(node_id, ftexpr)``.

        Through the evaluation cache when one is live — a node view is then
        made only on a miss — and straight to the IR engine otherwise.
        """
        ir = self._ir
        node_of = self._backend.node
        if cache is not None:
            return (partial(cache.satisfies, ir, node_of),
                    partial(cache.score, ir, node_of))
        return (lambda node_id, ftexpr: ir.satisfies(node_of(node_id), ftexpr),
                lambda node_id, ftexpr: ir.score(node_of(node_id), ftexpr))

    def _pool(self, tag, attr_predicates, allowed, cache):
        """One variable's candidate ids (tag scan + filters), cache-backed.

        The same key serves a plan's seed, the twig operator's per-variable
        pools and the descendant side of the pipeline's join merges, so all
        three share entries.  Id-sorted; shared — callers do not mutate it.
        """
        ids = None
        pool_key = None
        if cache is not None:
            pool_key = (tag, attr_predicates, restriction_key(allowed))
            ids = cache.get_pool(pool_key)
        if ids is None:
            backend = self._backend
            if tag is not None:
                ids = backend.node_ids_with_tag(tag)
            else:
                ids = range(len(backend))
            if allowed is not None:
                ids = [node_id for node_id in ids if node_id in allowed]
            if attr_predicates:
                node_of = backend.node
                ids = [
                    node_id
                    for node_id in ids
                    if self._attrs_ok(attr_predicates, node_of(node_id))
                ]
            if cache is not None:
                cache.put_pool(pool_key, ids)
        return ids

    def _seed(self, run, plan, stats):
        ids = self._pool(
            plan.root_tag,
            plan.root_attr_predicates,
            run.pools.get(plan.root_var),
            run.cache,
        )
        tuples = [((node_id,), 0.0, 0.0, _NO_PARTS) for node_id in ids]
        stats.tuples_produced += len(tuples)
        return tuples

    def _candidates(self, run, join, axis, bases, exists=False):
        """``base id → candidate ids`` for one alternative of one join.

        Resolved set-at-a-time: the bases the cached table for this join
        signature lacks are merged in one pass against the join variable's
        pool and grouped by base; candidates come out id-sorted.  With
        ``exists`` the table is ``base id → bool`` — whether the base has
        any candidate — filled by one probe per missing base.  Returns the
        table and how many bases had to be resolved.
        """
        allowed = run.pools.get(join.var)
        cache = run.cache
        fill = _has_candidate if exists else _candidates_of

        def resolve(missing):
            pool = self._pool(join.tag, join.attr_predicates, allowed, cache)
            return fill(self._backend, missing, pool, axis)

        if cache is None:
            return resolve(sorted(bases)), 0
        # The candidate set per base depends only on the navigation and the
        # surviving filters — the canonical join signature shared across
        # relaxation levels.
        signature = (
            axis, join.tag, join.attr_predicates, restriction_key(allowed),
            exists,
        )
        return cache.join_table(signature, bases, resolve)

    @staticmethod
    def _bound_bases(tuples, position):
        """The distinct ids bound at ``position``, and how many tuples bind one."""
        bases = {item[0][position] for item in tuples}
        probes = len(tuples)
        if None in bases:
            bases.discard(None)
            probes = sum(1 for item in tuples if item[0][position] is not None)
        return bases, probes

    def _extend(self, run, join, tuples, var_positions, stats, checkpoint):
        steps = []
        hits = misses = 0
        extension = partial(_Extension, run.signatures)
        for alt_index, alt in enumerate(join.alternatives):
            position = var_positions[alt.connect_var]
            bases, probes = self._bound_bases(tuples, position)
            table, resolved = self._candidates(run, join, alt.axis, bases)
            hits += probes - resolved
            misses += resolved
            steps.append(
                (position, table, alt.delta, extension((join.var, alt_index)))
            )
        if run.cache is not None:
            run.cache.count_join_probes(hits, misses)
        optional = join.optional
        unmatched_delta = join.optional_delta
        unmatched = extension((join.var, -1))
        first_position, first_table, first_delta, first_extended = steps[0]
        later = steps[1:]
        out = []
        append = out.append
        for stride in _strides(tuples, checkpoint):
            produced = len(out)
            for bindings, ss, ks, signature in stride:
                base = bindings[first_position]
                candidates = first_table[base] if base is not None else ()
                if candidates:
                    new_ss = ss + first_delta
                    extended = first_extended[signature]
                    for candidate in candidates:
                        append((bindings + (candidate,), new_ss, ks, extended))
                if later:
                    emitted = set(candidates)
                    for position, table, delta, extended in later:
                        base = bindings[position]
                        if base is None:
                            continue
                        for candidate in table[base]:
                            if candidate not in emitted:
                                emitted.add(candidate)
                                append((
                                    bindings + (candidate,),
                                    ss + delta,
                                    ks,
                                    extended[signature],
                                ))
                    if emitted:
                        continue
                elif candidates:
                    continue
                if optional:
                    append((
                        bindings + (None,),
                        ss + unmatched_delta,
                        ks,
                        unmatched[signature],
                    ))
                else:
                    stats.tuples_failed += 1
            stats.tuples_produced += len(out) - produced
        return out

    def _semi_join(self, run, join, tuples, var_positions, stats, checkpoint):
        """An existential join: exactly one tuple out per surviving input.

        Nobody reads the binding, so all that matters per input is the
        first alternative under which *any* candidate exists — Figure 8's
        "``c(section, algorithm)`` or if not … then ``d(article,
        algorithm)``".  Alternatives are best-first with non-increasing
        ``delta``, every tuple :meth:`_extend` would emit for one input
        shares its live key and keyword score, and ties keep the earlier
        tuple: the one emitted here is the one the projection would have
        kept.  Alternative *j* is resolved only for the bases of inputs
        alternatives ``< j`` left unmatched; the bindings stay as they are.
        """
        rounds = [
            (var_positions[alt.connect_var], alt.axis, alt.delta, alt_index)
            for alt_index, alt in enumerate(join.alternatives)
        ]
        if join.optional:
            # Whatever no alternative matched survives unbound: a last round
            # without an axis, which matches everything.
            rounds.append((0, None, join.optional_delta, -1))
        out = [None] * len(tuples)
        pending = tuples  # the inputs no round has matched yet, in order ...
        slots = range(len(tuples))  # ... and where each one's output goes
        hits = misses = 0
        for position, axis, delta, alt_index in rounds:
            if not pending:
                break
            if axis is None:
                matches = _always
            else:
                bases, probes = self._bound_bases(pending, position)
                table, resolved = self._candidates(
                    run, join, axis, bases, exists=True
                )
                hits += probes - resolved
                misses += resolved
                # No table when no input binds a base; None is in no table.
                matches = (table or {}).get
            extended = _Extension(run.signatures, (join.var, alt_index))
            unmatched = []
            unmatched_slots = []
            pairs = zip(slots, pending)
            for done in range(0, len(pending), CHECKPOINT_STRIDE):
                if done and checkpoint is not None:
                    checkpoint()
                for slot, item in islice(pairs, CHECKPOINT_STRIDE):
                    bindings, ss, ks, signature = item
                    if matches(bindings[position]):
                        out[slot] = (
                            bindings, ss + delta, ks, extended[signature]
                        )
                    else:
                        unmatched.append(item)
                        unmatched_slots.append(slot)
            pending = unmatched
            slots = unmatched_slots
        if run.cache is not None:
            run.cache.count_join_probes(hits, misses)
        if pending:
            stats.tuples_failed += len(pending)
            out = [item for item in out if item is not None]
        stats.tuples_produced += len(out)
        return out

    def _apply_checks(self, run, plan, var, tuples, var_positions, stats,
                      checkpoint):
        checks = plan.checks_by_var.get(var)
        if not checks:
            return tuples
        satisfies, score = self._contains_probes(run.cache)
        extension = partial(_Extension, run.signatures)
        compiled = [
            (
                check.ftexpr,
                [
                    (
                        var_positions[level.var],
                        level.delta,
                        extension(("contains", var, check_index, level_index)),
                    )
                    for level_index, level in enumerate(check.levels)
                ],
            )
            for check_index, check in enumerate(checks)
        ]
        out = []
        for stride in _strides(tuples, checkpoint):
            for bindings, ss, ks, signature in stride:
                for ftexpr, levels in compiled:
                    for position, delta, extended in levels:
                        node_id = bindings[position]
                        if node_id is None:
                            continue
                        if satisfies(node_id, ftexpr):
                            ss += delta
                            ks += score(node_id, ftexpr)
                            signature = extended[signature]
                            break
                    else:
                        # No level of this check matched: the tuple dies.
                        stats.tuples_failed += 1
                        break
                else:
                    out.append((bindings, ss, ks, signature))
        return out

    def _collect(self, run, plan, tuples, var_positions, scheme, stats):
        stats.answers_before_dedup = len(tuples)
        positions = [var_positions[plan.distinguished]]
        positions.extend(var_positions[var] for var in plan.fallback_chain)
        if len(positions) == 1:
            answer_of = itemgetter(positions[0])
        else:
            def answer_of(bindings):
                for position in positions:
                    node_id = bindings[position]
                    if node_id is not None:
                        return node_id
                return None

        # Only the tuple that won its answer node pays for a node view, and
        # each distinct signature for one relaxation level and one frozen
        # predicate set, shared by the answers that carry it.
        node_of = self._backend.node
        signatures = run.signatures.values
        described = {}
        answers = []
        for node_id, (_bindings, ss, ks, signature) in _best_per_key(
                tuples, answer_of, scheme).items():
            found = described.get(signature)
            if found is None:
                parts = signatures[signature]
                level = sum(
                    1
                    for part in parts
                    if (part[0] == "contains" and part[3] > 0)
                    or (part[0] != "contains" and part[1] != 0)
                )
                found = described[signature] = (level, frozenset(parts))
            answers.append(
                ScoredAnswer(
                    node=node_of(node_id),
                    score=AnswerScore(ss, ks),
                    relaxation_level=found[0],
                    satisfied=found[1],
                )
            )
        return answers

    def _drop_known_answers(self, run, tuples, position, stats):
        """Discard tuples already answered at a previous relaxation level.

        These drops are dedup, not pruning: they count into
        ``answers_deduped`` so ``tuples_pruned`` stays a pure measure of
        the threshold / ``maxScoreGrowth`` mechanism.
        """
        excluded = run.excluded
        kept = [item for item in tuples if item[0][position] not in excluded]
        stats.answers_deduped += len(tuples) - len(kept)
        return kept

    # -- projection -------------------------------------------------------------

    @staticmethod
    def _existential(plan):
        """Per join, whether it runs as a semi-join — the one place that decides."""
        return plan.existential()

    @staticmethod
    def _projections(plan, var_positions):
        """Per join, the live binding positions to key on — or ``None``.

        ``None`` marks a join after which no bound variable dies (an
        existential join's variable has no position: it is never bound).
        Tuples are pairwise distinct on their live bindings at every point
        of the pipeline (seeds are distinct nodes; a join appends distinct
        candidates to distinct inputs; a semi-join emits one tuple per
        input; a projection keeps one tuple per key), so with nothing dying
        every key is unique and :meth:`_project` has nothing to do.
        """
        projections = []
        alive = {0}
        for join, live in zip(plan.joins, plan.live_after()):
            if join.var in var_positions:
                alive.add(var_positions[join.var])
            keep = {
                var_positions[var] for var in live if var in var_positions
            } & alive
            projections.append(None if keep == alive else tuple(sorted(keep)))
            alive = keep
        return projections

    @staticmethod
    def _project(tuples, key_positions, scheme):
        """Null out dead bindings and keep the best tuple per live key.

        Tuples with identical live bindings have identical futures (every
        later join and check reads only live variables), so only the one
        with the best current score can contribute a top answer.
        """
        if key_positions is None or not tuples:
            return tuples
        best = _best_per_key(tuples, itemgetter(*key_positions), scheme)
        if len(best) == len(tuples):
            return tuples
        # One C-level pick per survivor: a dead position reads the ``None``
        # appended behind the bindings.
        width = len(tuples[0][0])
        nulled = itemgetter(*[
            position if position in key_positions else width
            for position in range(width)
        ])
        return [
            (nulled(bindings + (None,)), ss, ks, signature)
            for bindings, ss, ks, signature in best.values()
        ]

    def _attrs_ok(self, predicates, node):
        for predicate in predicates:
            if not predicate.evaluate(node.attributes.get(predicate.attr)):
                return False
        return True
