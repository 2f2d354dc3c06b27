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
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass

from repro.backend import as_backend
from repro.obs.metrics import REGISTRY
from repro.obs.tracer import NULL_TRACER
from repro.plans.eval_cache import restriction_key
from repro.plans.physical import TWIG, PhysicalPlan
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

    ``operators`` is populated only when a :class:`PhysicalPlan` ran: one
    JSON-safe dict per lowered operator with the cost model's ``estimate``
    next to the observed ``actual`` cardinality — the raw material of
    ``explain --analyze``.  It stays off :class:`ExecutionStats` because
    the stats dataclass is folded additively into the metrics registry.
    """

    answers: list
    stats: ExecutionStats
    operators: list = None


class _Tuple:
    """A partial match: variable bindings plus accumulated scores."""

    __slots__ = ("bindings", "ss", "ks", "signature")

    def __init__(self, bindings, ss, ks, signature):
        self.bindings = bindings
        self.ss = ss
        self.ks = ks
        self.signature = signature


class _RunState:
    """Per-``run`` inputs threaded through the phase helpers.

    Keeping these off the executor instance is what makes one executor
    reentrant: concurrent queries sharing a context each carry their own
    restrictions, dedup set, and cache handle down the call stack instead
    of racing over shared attributes.
    """

    __slots__ = ("pools", "excluded", "cache")

    def __init__(self, pools, excluded, cache):
        self.pools = pools
        self.excluded = excluded
        self.cache = cache


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

    def __init__(self, source, ir_engine=None, eval_cache=None, feedback=None):
        self._backend = as_backend(source, ir_engine=ir_engine)
        self._ir = ir_engine if ir_engine is not None else self._backend.ir
        self._eval_cache = eval_cache
        # FeedbackStatistics (repro.plans.cost) or None: observed pool sizes
        # and join fan-outs recorded during real runs feed the measured cost
        # model.  Only semantically clean measurements are recorded —
        # unrestricted pools without attribute predicates, required
        # single-alternative joins with non-empty input.
        self._feedback = feedback

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
        zero-argument callable invoked once before seeding and once per
        join (the twig operator: once per variable while seeding and while
        filtering by ``contains``, then before the holistic join and before
        the score pass) — the coarse-grained boundaries where abandoning a
        run cannot leave shared state half-mutated.  It aborts by raising
        (see :class:`~repro.session.QueryControl`); ``None`` costs nothing.

        ``plan`` may be a logical :class:`~repro.plans.plan.Plan` (executed
        with the binary pipeline, as before) or a
        :class:`~repro.plans.physical.PhysicalPlan`; the latter routes to
        the holistic twig operator when the lowering chose it — but only in
        strict mode, because threshold / ``maxScoreGrowth`` pruning needs
        the scored intermediates the holistic operator never materializes.
        """
        physical = None
        if isinstance(plan, PhysicalPlan):
            physical = plan
            plan = physical.logical
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
        use_twig = (
            physical is not None
            and physical.operator == TWIG
            and mode == STRICT
        )
        if use_twig:
            answers, actuals = self._run_twig(
                plan, run, stats, tracer, checkpoint
            )
        else:
            answers, actuals = self._run_binary(
                plan, k, scheme, mode, run, stats, tracer, checkpoint,
                record=physical is not None,
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
            folded = {"executor.plans_executed": 1}
            if physical is not None:
                folded["plan.physical.twig" if use_twig
                       else "plan.physical.binary"] = 1
            for key, value in stats.as_dict().items():
                if value and key != "max_intermediate":
                    folded["executor." + key] = value
            REGISTRY.inc_many(folded)
            REGISTRY.set_gauge_max(
                "executor.max_intermediate", stats.max_intermediate
            )
        operators = None
        if physical is not None:
            operators = []
            for op in physical.operators:
                entry = op.as_dict()
                entry["actual"] = actuals.get((op.kind, op.var))
                operators.append(entry)
        return ExecutionResult(answers=answers, stats=stats,
                               operators=operators)

    def _run_binary(self, plan, k, scheme, mode, run, stats, tracer,
                    checkpoint, record=False):
        """The classic pipeline: seed, then extend join by join."""
        actuals = {}
        feedback = self._feedback
        var_tags = {plan.root_var: plan.root_tag}
        for join in plan.joins:
            var_tags[join.var] = join.tag
        var_positions = {plan.root_var: 0}
        for index, join in enumerate(plan.joins):
            var_positions[join.var] = index + 1
        live_after = self._liveness(plan)

        growth_ss, growth_ks, guaranteed_ss, guaranteed_ok = plan.growth_tables()
        prune = k is not None and mode in (SSO_MODE, HYBRID_MODE)
        distinguished_pos = var_positions[plan.distinguished]

        # Guarantees are tracked per prospective answer node: several tuples
        # guaranteeing the *same* answer must count once, or the threshold
        # would overestimate and prune genuine top-K answers.
        guaranteed_by_node = {}

        def guarantee(item, value):
            if distinguished_pos >= len(item.bindings):
                return  # answer node not bound yet; no safe guarantee key
            node = item.bindings[distinguished_pos]
            if node is None:
                return
            current = guaranteed_by_node.get(node.node_id)
            if current is None or value > current:
                guaranteed_by_node[node.node_id] = value

        def threshold():
            if len(guaranteed_by_node) < k:
                return None
            return heapq.nlargest(k, guaranteed_by_node.values())[-1]

        if checkpoint is not None:
            checkpoint()
        with tracer.span("seed"):
            tuples = self._seed(run, plan, stats)
        if record:
            actuals[("seed-scan", plan.root_var)] = len(tuples)
        if (feedback is not None
                and run.pools.get(plan.root_var) is None
                and not plan.root_attr_predicates):
            feedback.record_pool(plan.root_tag, len(tuples))
        if run.excluded and plan.distinguished == plan.root_var:
            with tracer.span("dedup"):
                tuples = self._drop_known_answers(run, tuples, 0, stats)
        with tracer.span("checks"):
            tuples = self._apply_checks(
                run, plan, plan.root_var, tuples, var_positions, stats
            )
        if record and plan.checks_by_var.get(plan.root_var):
            actuals[("contains-filter", plan.root_var)] = len(tuples)
        # Zero-join plans never enter the loop below; record the seeded and
        # checked population here so max_intermediate is meaningful for them.
        stats.note_intermediate(len(tuples))

        for index, join in enumerate(plan.joins):
            if checkpoint is not None:
                checkpoint()
            bases = len(tuples)
            with tracer.span("extend"):
                tuples = self._extend(run, join, tuples, var_positions, stats)
            if record:
                actuals[("binary-join", join.var)] = len(tuples)
            if (feedback is not None
                    and bases > 0
                    and len(join.alternatives) == 1
                    and not join.optional
                    and run.pools.get(join.var) is None
                    and not join.attr_predicates):
                alt = join.alternatives[0]
                feedback.record_join(
                    var_tags.get(alt.connect_var), alt.axis, join.tag,
                    bases, len(tuples),
                )
            if run.excluded and join.var == plan.distinguished:
                with tracer.span("dedup"):
                    tuples = self._drop_known_answers(
                        run, tuples, var_positions[join.var], stats
                    )
            with tracer.span("checks"):
                tuples = self._apply_checks(
                    run, plan, join.var, tuples, var_positions, stats
                )
            if record and plan.checks_by_var.get(join.var):
                actuals[("contains-filter", join.var)] = len(tuples)
            with tracer.span("project"):
                tuples = self._project(
                    tuples, live_after[index], var_positions, scheme, stats
                )
            position = index + 1

            if prune:
                # Register guarantees, then prune against the threshold.
                with tracer.span("prune"):
                    if guaranteed_ok[position]:
                        for item in tuples:
                            guarantee(
                                item,
                                self._pessimistic(
                                    item, guaranteed_ss[position], scheme
                                ),
                            )
                    limit = threshold()
                    if limit is not None:
                        kept = []
                        for item in tuples:
                            optimistic = self._optimistic(
                                item,
                                growth_ss[position],
                                growth_ks[position],
                                scheme,
                            )
                            if optimistic < limit - PRUNE_EPSILON:
                                stats.tuples_pruned += 1
                            else:
                                kept.append(item)
                        tuples = kept

            if mode == SSO_MODE:
                # SSO keeps intermediate answers sorted on score (§5.2.2).
                with tracer.span("sort"):
                    tuples.sort(key=lambda item: item.ss, reverse=True)
                stats.sort_operations += 1
                stats.sorted_tuples += len(tuples)
            elif mode == HYBRID_MODE:
                # Hybrid re-groups into score-homogeneous buckets instead.
                with tracer.span("bucket"):
                    buckets = {}
                    for item in tuples:
                        buckets.setdefault(item.signature, []).append(item)
                    stats.buckets_created += len(buckets)
                    tuples = [
                        item for bucket in buckets.values() for item in bucket
                    ]

            stats.note_intermediate(len(tuples))

        with tracer.span("collect"):
            answers = self._collect(plan, tuples, var_positions, scheme, stats)
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
        ir = self._ir
        cache = run.cache
        feedback = self._feedback
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
                allowed = run.pools.get(var)
                pool = self._pool(var_tags[var], var_attrs[var], allowed, cache)
                pools[var] = pool
                stats.tuples_produced += len(pool)
                if (feedback is not None and allowed is None
                        and not var_attrs[var]):
                    feedback.record_pool(var_tags[var], len(pool))
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
                    filtered_ids[var] = [node.node_id for node in pool]
                    continue
                ids = []
                scores = {}
                for node in pool:
                    total = 0.0
                    alive = True
                    for check in checks:
                        if cache is not None:
                            ok = cache.satisfies(ir, node, check.ftexpr)
                        else:
                            ok = ir.satisfies(node, check.ftexpr)
                        if not ok:
                            alive = False
                            stats.tuples_failed += 1
                            break
                        if cache is not None:
                            total += cache.score(ir, node, check.ftexpr)
                        else:
                            total += ir.score(node, check.ftexpr)
                    if alive:
                        ids.append(node.node_id)
                        scores[node.node_id] = total
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
            node_by_id = {
                node.node_id: node for node in pools[distinguished]
            }
            answers = []
            for node_id in answer_ids:
                ks = (
                    up_scores[node_id] + down_scores[node_id]
                    if has_checks
                    else 0.0
                )
                answers.append(
                    ScoredAnswer(
                        node=node_by_id[node_id],
                        score=AnswerScore(ss, ks),
                        relaxation_level=0,
                        satisfied=satisfied,
                    )
                )
            stats.answers_before_dedup = len(answers)
        return answers, actuals

    # -- phases -----------------------------------------------------------------

    def _pool(self, tag, attr_predicates, allowed, cache):
        """One variable's candidate pool (tag scan + filters), cache-backed.

        The key matches the seed pool key exactly, so the twig operator's
        per-variable pools and the pipeline's seed pools share entries.
        """
        nodes = None
        pool_key = None
        if cache is not None:
            pool_key = (tag, attr_predicates, restriction_key(allowed))
            nodes = cache.get_pool(pool_key)
        if nodes is None:
            if tag is not None:
                candidates = self._backend.nodes_with_tag(tag)
            else:
                candidates = list(self._backend.nodes())
            nodes = []
            for node in candidates:
                if allowed is not None and node.node_id not in allowed:
                    continue
                if not self._attrs_ok(attr_predicates, node):
                    continue
                nodes.append(node)
            if cache is not None:
                nodes = tuple(nodes)
                cache.put_pool(pool_key, nodes)
        return nodes

    def _seed(self, run, plan, stats):
        nodes = self._pool(
            plan.root_tag,
            plan.root_attr_predicates,
            run.pools.get(plan.root_var),
            run.cache,
        )
        tuples = [_Tuple((node,), 0.0, 0.0, ()) for node in nodes]
        stats.tuples_produced += len(tuples)
        return tuples

    def _extend(self, run, join, tuples, var_positions, stats):
        out = []
        allowed = run.pools.get(join.var)
        cache = run.cache
        filter_key = None
        if cache is not None:
            # The per-base candidate set depends only on the navigation
            # (axis, base node, tag) and the surviving filters — the
            # canonical join signature shared across relaxation levels.
            filter_key = (
                join.tag,
                join.attr_predicates,
                restriction_key(allowed),
            )
        for item in tuples:
            emitted = set()
            matched = False
            for alt_index, alt in enumerate(join.alternatives):
                base = item.bindings[var_positions[alt.connect_var]]
                if base is None:
                    continue
                candidates = None
                if cache is not None:
                    join_key = (alt.axis, base.node_id, filter_key)
                    candidates = cache.get_join(join_key)
                if candidates is None:
                    if alt.axis == "pc":
                        raw = self._children(base, join.tag)
                    else:
                        raw = self._descendants(base, join.tag)
                    candidates = [
                        candidate
                        for candidate in raw
                        if (allowed is None or candidate.node_id in allowed)
                        and self._attrs_ok(join.attr_predicates, candidate)
                    ]
                    if cache is not None:
                        candidates = tuple(candidates)
                        cache.put_join(join_key, candidates)
                for candidate in candidates:
                    if candidate.node_id in emitted:
                        continue
                    emitted.add(candidate.node_id)
                    matched = True
                    out.append(
                        _Tuple(
                            item.bindings + (candidate,),
                            item.ss + alt.delta,
                            item.ks,
                            item.signature + ((join.var, alt_index),),
                        )
                    )
            if not matched:
                if join.optional:
                    out.append(
                        _Tuple(
                            item.bindings + (None,),
                            item.ss + join.optional_delta,
                            item.ks,
                            item.signature + ((join.var, -1),),
                        )
                    )
                else:
                    stats.tuples_failed += 1
        stats.tuples_produced += len(out)
        return out

    def _apply_checks(self, run, plan, var, tuples, var_positions, stats):
        checks = plan.checks_by_var.get(var)
        if not checks:
            return tuples
        ir = self._ir
        cache = run.cache
        out = []
        for item in tuples:
            ss = item.ss
            ks = item.ks
            signature = item.signature
            alive = True
            for check_index, check in enumerate(checks):
                matched_level = None
                for level_index, level in enumerate(check.levels):
                    node = item.bindings[var_positions[level.var]]
                    if node is None:
                        continue
                    if cache is not None:
                        satisfied = cache.satisfies(ir, node, check.ftexpr)
                    else:
                        satisfied = ir.satisfies(node, check.ftexpr)
                    if satisfied:
                        matched_level = level_index
                        ss += level.delta
                        if cache is not None:
                            ks += cache.score(ir, node, check.ftexpr)
                        else:
                            ks += ir.score(node, check.ftexpr)
                        break
                if matched_level is None:
                    alive = False
                    break
                signature = signature + (("contains", var, check_index, matched_level),)
            if alive:
                out.append(_Tuple(item.bindings, ss, ks, signature))
            else:
                stats.tuples_failed += 1
        return out

    def _collect(self, plan, tuples, var_positions, scheme, stats):
        stats.answers_before_dedup = len(tuples)
        best = {}
        distinguished_pos = var_positions[plan.distinguished]
        for item in tuples:
            node = item.bindings[distinguished_pos]
            if node is None:
                for ancestor_var in plan.fallback_chain:
                    node = item.bindings[var_positions[ancestor_var]]
                    if node is not None:
                        break
            if node is None:
                continue
            score = AnswerScore(item.ss, item.ks)
            level = sum(
                1
                for part in item.signature
                if (part[0] == "contains" and part[3] > 0)
                or (part[0] != "contains" and part[1] != 0)
            )
            current = best.get(node.node_id)
            if current is None or scheme.sort_key(score) > scheme.sort_key(
                current.score
            ):
                best[node.node_id] = ScoredAnswer(
                    node=node,
                    score=score,
                    relaxation_level=level,
                    satisfied=frozenset(item.signature),
                )
        return list(best.values())

    def _drop_known_answers(self, run, tuples, position, stats):
        """Discard tuples already answered at a previous relaxation level.

        These drops are dedup, not pruning: they count into
        ``answers_deduped`` so ``tuples_pruned`` stays a pure measure of
        the threshold / ``maxScoreGrowth`` mechanism.
        """
        excluded = run.excluded
        kept = []
        for item in tuples:
            node = item.bindings[position]
            if node is not None and node.node_id in excluded:
                stats.answers_deduped += 1
            else:
                kept.append(item)
        return kept

    # -- projection -------------------------------------------------------------

    @staticmethod
    def _liveness(plan):
        """Per join position, the variables still referenced afterwards.

        A variable is live after join ``i`` when a later join's alternative
        connects through it, a later contains check reads it, or the answer
        node may come from it (distinguished variable and its fallback
        chain). Dead variables are projected away so tuples that differ
        only in exhausted branches collapse — without this, relaxed plans
        enumerate the cross product of every branch's matches.
        """
        needed = {plan.distinguished}
        needed.update(plan.fallback_chain)
        needed.add(plan.root_var)
        live = [None] * len(plan.joins)
        acc = set(needed)
        for index in range(len(plan.joins) - 1, -1, -1):
            live[index] = frozenset(acc)
            join = plan.joins[index]
            for alt in join.alternatives:
                acc.add(alt.connect_var)
            for check in plan.checks_by_var.get(join.var, ()):
                for level in check.levels:
                    acc.add(level.var)
            acc.add(join.var)
        return live

    def _project(self, tuples, live, var_positions, scheme, stats):
        """Null out dead bindings and keep the best tuple per live key.

        Tuples with identical live bindings have identical futures (every
        later join and check reads only live variables), so only the one
        with the best current score can contribute a top answer.
        """
        live_positions = {
            var_positions[var] for var in live if var in var_positions
        }
        key_positions = sorted(live_positions)
        best = {}
        for item in tuples:
            bindings = item.bindings
            key = tuple(
                bindings[pos].node_id if bindings[pos] is not None else None
                for pos in key_positions
                if pos < len(bindings)
            )
            current = best.get(key)
            if current is None or scheme.sort_key(
                AnswerScore(item.ss, item.ks)
            ) > scheme.sort_key(AnswerScore(current.ss, current.ks)):
                best[key] = item
        if len(best) == len(tuples):
            return tuples
        projected = []
        for item in best.values():
            bindings = tuple(
                node if position in live_positions else None
                for position, node in enumerate(item.bindings)
            )
            projected.append(_Tuple(bindings, item.ss, item.ks, item.signature))
        return projected

    # -- bounds -------------------------------------------------------------------

    @staticmethod
    def _optimistic(item, growth_ss, growth_ks, scheme):
        key = scheme.sort_key(AnswerScore(item.ss + growth_ss, item.ks + growth_ks))
        return key[0]

    @staticmethod
    def _pessimistic(item, guaranteed_ss, scheme):
        key = scheme.sort_key(AnswerScore(item.ss + guaranteed_ss, item.ks))
        return key[0]

    # -- candidate access -----------------------------------------------------------

    def _children(self, node, tag):
        if tag is None:
            return self._backend.children(node)
        return self._backend.children_with_tag(node, tag)

    def _descendants(self, node, tag):
        if tag is None:
            return list(self._backend.descendants(node))
        return self._backend.descendants_with_tag(node, tag)

    def _attrs_ok(self, predicates, node):
        for predicate in predicates:
            if not predicate.evaluate(node.attributes.get(predicate.attr)):
                return False
        return True
