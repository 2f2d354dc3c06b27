"""Plan execution: the shared machinery behind DPO, SSO and Hybrid (§5.2).

One executor runs a :class:`~repro.plans.plan.Plan` in one of three modes,
and the mode alone picks the operator:

- ``"strict"`` — the holistic twig operator (:meth:`PlanExecutor._run_twig`):
  plain evaluation of a conjunctive plan, no pruning, no score ordering.
  DPO runs the strict plan of each relaxation level this way.
- ``"sso"`` — the binary pipeline (:meth:`PlanExecutor._run_binary`); after
  every join the intermediate tuple list is **sorted on score** so the
  ``threshold + maxScoreGrowth`` pruning of §5.2.2 can be applied; this
  resorting is exactly the bottleneck the paper attributes to SSO ("there
  is a fundamental tension between these two sort orders").
- ``"hybrid"`` — the binary pipeline with intermediate tuples grouped into
  **buckets** keyed by the set of predicates they satisfied (the sequence
  of alternatives chosen). Within a bucket all tuples have the same
  structural score and stay sorted on node id by construction, so no
  sorting on scores ever happens; pruning works at bucket granularity
  (§5.2.3).

Pruning is conservative and never drops a potential top-K answer: a tuple
is discarded only when its optimistic completion (current score +
``maxScoreGrowth``) is strictly below the current K-th *guaranteed* score —
guarantees come from completed answers and from tuples whose remaining
joins are all optional.  It needs the scored intermediates only the binary
pipeline materializes, which is why the encoded plans of SSO and Hybrid run
there.

Both operators work on node ids from seed to collect, and resolve every
step set-at-a-time: one table per step over the distinct ids the pending
tuples bind, read by plain subscripts.  A join reads one ``base id →
candidate ids`` table per alternative, filled by one structural merge
(:meth:`PlanExecutor._candidates`), and extends tuple by tuple.  A join
whose binding nobody reads (:meth:`~repro.plans.plan.Plan.existential`) is
a semi-join instead, and a ``contains`` check a filter: both run as
*rounds* (:meth:`PlanExecutor._rounds`) — one tuple out per surviving
tuple in, decided by the first alternative or check level whose table maps
the tuple's id to a gain.  A ``contains`` table is filled through the IR
engine's id door (``ir.contains_scores``), and an answer carries its id
and the backend, which builds its view when a caller reads
``answer.node``: ``backend.node(id)`` is called only for an attribute
predicate while a pool is filtered.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import itemgetter

from repro.backend import as_backend
from repro.errors import EvaluationError
from repro.obs.tracer import NULL_TRACER
from repro.plans.eval_cache import EvaluationCache, restriction_key
from repro.plans.lowering import twig_eligible
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

#: Input tuples (or nodes a ``contains`` table resolves) between two
#: ``checkpoint`` calls inside one join or one ``contains`` filter.  A
#: deadline that passes mid-join is noticed within this many input tuples
#: instead of at the next join boundary; at the pipeline's ~1 µs per tuple
#: that is a few milliseconds of overshoot.
CHECKPOINT_STRIDE = 4096

#: Sort key of a pipeline tuple ``(bindings, ss, ks, signature)`` for SSO.
_STRUCTURAL = itemgetter(1)

#: Id of the empty signature in every :class:`_Signatures`.
_NO_PARTS = 0


@dataclass
class ExecutionStats:
    """Operational counters for one plan execution.

    ``tuples_pruned`` counts only threshold / ``maxScoreGrowth`` prunes;
    answers dropped because their node was already produced at an
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
        return dict(vars(self))


@dataclass
class ExecutionResult:
    """Deduplicated scored answers plus execution counters.

    ``estimates`` are the plan's :class:`~repro.plans.lowering.OperatorEstimate`
    records (empty for a plan that was never lowered) and ``actuals`` the
    cardinalities this run observed, keyed ``(kind, var)`` — for a twig run
    a function returning them, as it may look up cached tables.  They stay off
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
        actuals = self.actuals() if callable(self.actuals) else self.actuals
        operators = []
        for op in self.estimates:
            entry = op.as_dict()
            entry["actual"] = actuals.get((op.kind, op.var))
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
    restrictions, dedup set and signature table down the call stack
    instead of racing over shared attributes.
    """

    __slots__ = ("pools", "excluded", "signatures")

    def __init__(self, pools, excluded):
        self.pools = pools
        self.excluded = excluded
        self.signatures = _Signatures()


class _Twig:
    """A twig-eligible plan as a tree, with the signature of every subtree.

    ``nodes[var]`` is ``(tag, attr predicates, pool restriction, checks)``,
    ``parents[var]`` ``(parent, axis)``, ``children[var]`` ``(child, axis)``
    pairs in plan order; ``scored[var]`` whether a check sits in the subtree
    (if not, its table is all ``0.0``); ``signatures[var]`` everything the
    subtree's table depends on, so levels that agree on a subtree share it.
    """

    __slots__ = ("root", "nodes", "parents", "children", "scored", "signatures")

    def __init__(self, plan, pools):
        checks = plan.checks_by_var
        root = self.root = plan.root_var
        self.nodes = {root: (plan.root_tag, plan.root_attr_predicates,
                             pools.get(root), checks.get(root, ()))}
        self.parents = {}
        self.children = {root: []}
        for join in plan.joins:
            alt = join.alternatives[0]
            self.nodes[join.var] = (join.tag, join.attr_predicates,
                                    pools.get(join.var), checks.get(join.var, ()))
            self.parents[join.var] = (alt.connect_var, alt.axis)
            self.children[join.var] = []
            self.children[alt.connect_var].append((join.var, alt.axis))
        self.scored = {}
        self.signatures = {}
        for var in reversed(self.nodes):  # joins bind parents first
            kids = self.children[var]
            self.scored[var] = bool(self.nodes[var][3]) or any(
                self.scored[child] for child, _axis in kids
            )
            self.signatures[var] = self.signature(var, kids)

    def signature(self, var, kids):
        """The cache key of ``var``'s table over the child edges ``kids``."""
        tag, attrs, allowed, checks = self.nodes[var]
        return (
            tag, attrs, restriction_key(allowed),
            tuple(check.ftexpr for check in checks),
            tuple((axis, self.signatures[child]) for child, axis in kids),
        )


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


def _plus(scores, gains):
    """``scores`` plus ``gains`` per id, without the ids ``gains`` has no value for."""
    return {
        node_id: ks + gains[node_id]
        for node_id, ks in scores.items()
        if gains.get(node_id) is not None
    }


def _no_gain(_node_id):
    """The optional round of a semi-join: whatever is left matches."""
    return 0.0


def _has_candidate(backend, bases, pool, axis):
    """``base → 0.0`` if it has any candidate, else ``None``: one probe per base."""
    filled = dict.fromkeys(bases)
    for base in backend.semi_join_ancestor_ids(bases, pool, axis=axis):
        filled[base] = 0.0
    return filled


def _disabled_cache():
    """An evaluation cache that computes every entry and records nothing."""
    cache = EvaluationCache()
    cache.enabled = False
    return cache


def _bound_ids(tuples, position):
    """The distinct ids bound at ``position``, and how many tuples bind one."""
    ids = {item[0][position] for item in tuples}
    probes = len(tuples)
    if None in ids:
        ids.discard(None)
        probes = sum(1 for item in tuples if item[0][position] is not None)
    return ids, probes


class PlanExecutor:
    """Executes plans against one StorageBackend + IR engine pair.

    Stateless across runs: every :meth:`run` builds a private
    :class:`_RunState`, so one executor instance serves any number of
    concurrent queries (the shared :class:`EvaluationCache` it probes is
    internally locked).  Given no cache it builds a private disabled one,
    which computes every table and records nothing.

    ``source`` may be a :class:`~repro.backend.base.StorageBackend` or
    anything :func:`~repro.backend.as_backend` coerces (a bare document, a
    corpus); all candidate access goes through the backend seam.
    """

    def __init__(self, source, ir_engine=None, eval_cache=None):
        self._backend = as_backend(source, ir_engine=ir_engine)
        self._ir = ir_engine if ir_engine is not None else self._backend.ir
        self._eval_cache = eval_cache or _disabled_cache()

    # -- public entry ---------------------------------------------------------

    def run(self, plan, k=None, scheme=STRUCTURE_FIRST, mode=STRICT,
            pool_restrictions=None, exclude_answer_ids=None,
            tracer=NULL_TRACER, checkpoint=None):
        """Execute ``plan`` and return deduplicated scored answers.

        ``k`` enables threshold pruning in the sso/hybrid modes, and there
        the run builds answers for the K best distinct answers only, in the
        order of :func:`~repro.rank.schemes.rank_answers` (score, then the
        lower node id): whatever K cannot read is never made.  Strict mode
        returns every match — DPO, IR-first and naive rank them.

        ``pool_restrictions`` optionally maps variables to sets of node ids
        their bindings must come from — the hook the IR-first strategy uses
        to seed structural matching with contains-satisfying elements
        (§5.1's "alternative possibility").

        ``exclude_answer_ids`` (strict mode) drops the matches that are
        already known answers — DPO's §5.2.2 trick for not reporting the
        previous levels' answers again when evaluating the next relaxation.

        ``tracer`` receives one span per phase (twig / collect in strict
        mode; seed / extend / checks / project / prune / sort / bucket /
        collect otherwise); the default no-op tracer makes an untraced run
        cost nothing extra.

        ``checkpoint`` is the session deadline/cancellation hook: a
        zero-argument callable invoked once before seeding, once per join
        and every :data:`CHECKPOINT_STRIDE` input tuples inside a join or a
        ``contains`` filter, or nodes a ``contains`` table resolves (the
        twig operator: once on entry, then once per subtree table it
        resolves and every :data:`CHECKPOINT_STRIDE` ids of its fill) —
        boundaries where abandoning a run cannot leave shared state
        half-mutated.  It aborts
        by raising (see :class:`~repro.session.QueryControl`); ``None``
        costs nothing.

        ``mode`` picks the operator: strict mode is the holistic twig
        join, the pruning modes are the binary pipeline.  A plan that is
        not :func:`~repro.plans.lowering.twig_eligible` is refused in
        strict mode with an :class:`~repro.errors.EvaluationError`.
        """
        stats = ExecutionStats()
        run = _RunState(
            pools=pool_restrictions or {},
            excluded=exclude_answer_ids or (),
        )
        if mode == STRICT:
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
        return ExecutionResult(answers=answers, stats=stats,
                               estimates=plan.estimates, actuals=actuals)

    def _run_binary(self, plan, k, scheme, mode, run, stats, tracer,
                    checkpoint):
        """The classic pipeline of the pruning modes: seed, then extend join
        by join.

        A partial match is a plain 4-tuple ``(bindings, ss, ks, signature)``
        whose ``bindings`` are the node ids of the variables somebody reads,
        in plan order (``None`` where an optional join found nothing or a
        dead variable was projected away; an existential join binds
        nothing); a node view is made only for attribute predicates while
        a pool is filtered.
        """
        actuals = {}
        existential = self._existential(plan)
        var_positions = {plan.root_var: 0}
        for join, unread in zip(plan.joins, existential):
            if not unread:
                var_positions[join.var] = len(var_positions)
        projections = self._projections(plan, var_positions)

        growth_ss, growth_ks, guaranteed_ss, guaranteed_ok = plan.growth_tables()
        prune = k is not None
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
                run, plan, tuples, var_positions, k, scheme, stats
            )
        return answers, actuals

    # -- the holistic twig operator ---------------------------------------------

    def _run_twig(self, plan, run, stats, tracer, checkpoint):
        """Evaluate a twig-eligible plan bottom-up over cached subtree tables.

        A subtree table (:meth:`_subtree`) holds the pool nodes of a
        variable where its whole subtree embeds, each with the best keyword
        score of such an embedding; the max over embeddings of a tree-shaped
        sum decomposes into independent per-child maxima.  Tables are cached
        under their subtree's signature (:class:`_Twig`), so a DPO level
        finds every subtree its relaxation step left alone and pays only
        for the path from the changed node up.  The answers are the
        distinguished variable's matches (:meth:`_spine`), all with one
        structural score and signature, as the plan is conjunctive.

        Stats: ``tuples_produced`` counts the pool ids of the tables this
        run resolved (nothing for a cache hit); ``answers_deduped`` the
        excluded ids among the distinguished variable's matches, and
        ``max_intermediate`` those matches.  The actuals are each
        variable's matches, read off its table whether resolved or cached.
        """
        twig = _Twig(plan, run.pools)
        tables = {}
        if checkpoint is not None:
            checkpoint()
        with tracer.span("twig"):
            matches = self._spine(
                twig, plan.distinguished, stats, checkpoint, tables
            )

        ss = 0.0
        for join in plan.joins:
            ss += join.alternatives[0].delta
        # Every join matched its one alternative, every check at level 0.
        signature = [(join.var, 0) for join in plan.joins]
        for var, checks in plan.checks_by_var.items():
            for check_index in range(len(checks)):
                signature.append(("contains", var, check_index, 0))
        satisfied = frozenset(signature)

        with tracer.span("collect"):
            backend = self._backend
            excluded = run.excluded
            answers = [
                ScoredAnswer(
                    score=AnswerScore(ss, ks),
                    satisfied=satisfied,
                    node_id=node_id,
                    source=backend,
                )
                for node_id, ks in matches.items()
                if node_id not in excluded
            ]
        stats.answers_deduped += len(matches) - len(answers)
        stats.note_intermediate(len(matches))
        stats.answers_before_dedup = len(answers)

        def actuals():
            # A table below a cached one is looked up only when asked for.
            root_pool = self._pool(*twig.nodes[twig.root][:3])
            found = {("seed-scan", twig.root): len(root_pool)}
            for var, node in twig.nodes.items():
                table = tables[var] if var in tables else self._subtree(
                    twig, var, twig.children[var], ExecutionStats(), None, tables
                )
                if var != twig.root:
                    found[("twig-join", var)] = len(table)
                if node[3]:
                    found[("contains-filter", var)] = len(table)
            return found

        return answers, actuals

    def _subtree(self, twig, var, kids, stats, checkpoint, tables):
        """``node id → best keyword score`` of ``var``'s subtree, matches only.

        ``kids`` are the ``(child, axis)`` edges in the subtree: all of
        ``var``'s but the spine child on the spine.  A missing table is built
        from the pool with a ``semi_join_ancestor_ids`` probe per all-``0.0``
        child table (most selective first), a ``max_value_per_ancestor`` pass
        per scored one, then ``var``'s own ``contains`` tables in check
        order; it checkpoints on entry and every :data:`CHECKPOINT_STRIDE`
        ids of its fill, and enters the cache only whole.
        """
        backend = self._backend
        tag, attrs, allowed, checks = twig.nodes[var]
        full = kids is twig.children[var]
        key = twig.signatures[var] if full else twig.signature(var, kids)
        pool = self._pool(tag, attrs, allowed)

        def resolve(ids):
            if checkpoint is not None:
                checkpoint()
            probes = []
            gains = []
            for child, axis in kids:
                below = self._subtree(
                    twig, child, twig.children[child], stats, checkpoint, tables
                )
                if twig.scored[child]:
                    gains.append((below, axis))
                else:
                    probes.append((len(below), below, axis))
            probes.sort(key=itemgetter(0))
            alive = ids
            for _count, below, axis in probes:
                alive = backend.semi_join_ancestor_ids(alive, list(below), axis=axis)
            scores = {}
            for chunk in _strides(alive, checkpoint):
                scores.update(dict.fromkeys(chunk, 0.0))
            for below, axis in gains:
                scores = _plus(scores, backend.max_value_per_ancestor(
                    list(scores), list(below), below, axis=axis
                ))
            for check in checks:
                scores = _plus(scores, self._contains_table(
                    check.ftexpr, set(scores), len(scores), checkpoint
                ))
            stats.tuples_produced += len(ids)
            return scores

        table = self._eval_cache.table("subtree", key, pool, resolve, len(pool))
        if full:
            tables[var] = table
        return table

    def _spine(self, twig, distinguished, stats, checkpoint, tables):
        """``node id → keyword score`` of the distinguished variable's matches.

        The root's table when the root is distinguished.  Otherwise one
        top-down pass from the root: per spine variable, the table of its
        subtree *without* the spine child (cached under its own signature)
        plus the best of its spine ancestors (``max_value_per_descendant``).
        """
        spine = [distinguished]
        while spine[-1] in twig.parents:
            spine.append(twig.parents[spine[-1]][0])
        spine.reverse()
        best = None
        for var, below in zip(spine, spine[1:] + [None]):
            kids = twig.children[var]
            if below is not None:
                kids = [edge for edge in kids if edge[0] != below]
            table = self._subtree(twig, var, kids, stats, checkpoint, tables)
            if best is not None:
                table = _plus(table, self._backend.max_value_per_descendant(
                    list(best), best, list(table), axis=twig.parents[var][1]
                ))
            best = table
        return best

    # -- phases -----------------------------------------------------------------

    def _pool(self, tag, attr_predicates, allowed):
        """One variable's candidate ids (tag scan + filters), cache-backed.

        The same key serves a plan's seed, the twig operator's per-variable
        pools and the descendant side of the pipeline's join merges, so all
        three share entries.  Id-sorted; shared — callers do not mutate it.
        A corpus' virtual root is in no pool: it is no element of any
        document, and a shard's own root would otherwise bind a variable
        with only that shard's documents beneath it.
        """

        def compute():
            backend = self._backend
            if tag is not None:
                ids = backend.node_ids_with_tag(tag)
            else:
                ids = range(len(backend))
            root = backend.virtual_root_id
            if root is not None and ids and ids[0] == root:
                ids = ids[1:]  # node 0: the first id of any pool holding it
            if allowed is not None:
                ids = [node_id for node_id in ids if node_id in allowed]
            if attr_predicates:
                node_of = backend.node
                ids = [
                    node_id
                    for node_id in ids
                    if self._attrs_ok(attr_predicates, node_of(node_id))
                ]
            return ids

        key = (tag, attr_predicates, restriction_key(allowed))
        return self._eval_cache.value("pool", key, compute)

    def _seed(self, run, plan, stats):
        ids = self._pool(
            plan.root_tag,
            plan.root_attr_predicates,
            run.pools.get(plan.root_var),
        )
        tuples = [((node_id,), 0.0, 0.0, _NO_PARTS) for node_id in ids]
        stats.tuples_produced += len(tuples)
        return tuples

    def _candidates(self, run, join, axis, bases, probes, exists=False):
        """``base id → candidate ids`` for one alternative of one join.

        Resolved set-at-a-time: the bases the cached table for this join
        signature lacks are merged in one pass against the join variable's
        pool and grouped by base; candidates come out id-sorted.  With
        ``exists`` the table is ``base id → 0.0`` where the base has any
        candidate and ``None`` where it has none, filled by one probe per
        missing base.  ``probes`` is how many tuples read the table.
        """
        allowed = run.pools.get(join.var)
        fill = _has_candidate if exists else _candidates_of

        def resolve(missing):
            pool = self._pool(join.tag, join.attr_predicates, allowed)
            return fill(self._backend, missing, pool, axis)

        # The candidate set per base depends only on the navigation and the
        # surviving filters — the canonical join signature shared across
        # relaxation levels.
        signature = (
            axis, join.tag, join.attr_predicates, restriction_key(allowed),
            exists,
        )
        return self._eval_cache.table("join", signature, bases, resolve, probes)

    def _contains_table(self, ftexpr, node_ids, probes, checkpoint=None):
        """``node id → keyword score`` for ``ftexpr``, ``None`` where unsatisfied.

        The ids the table lacks go to ``ir.contains_scores`` one
        :data:`CHECKPOINT_STRIDE` slice per call, with a ``checkpoint``
        between slices; no node view is made.
        """
        contains_scores = self._ir.contains_scores

        def resolve(missing):
            filled = {}
            for done in range(0, len(missing), CHECKPOINT_STRIDE):
                if done and checkpoint is not None:
                    checkpoint()
                filled.update(contains_scores(
                    ftexpr, missing[done:done + CHECKPOINT_STRIDE]
                ))
            return filled

        return self._eval_cache.table("contains", ftexpr, node_ids, resolve, probes)

    def _extend(self, run, join, tuples, var_positions, stats, checkpoint):
        steps = []
        extension = partial(_Extension, run.signatures)
        for alt_index, alt in enumerate(join.alternatives):
            position = var_positions[alt.connect_var]
            table = self._candidates(
                run, join, alt.axis, *_bound_ids(tuples, position)
            )
            steps.append(
                (position, table, alt.delta, extension((join.var, alt_index)))
            )
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
        kept.  One round per alternative (:meth:`_rounds`), so alternative
        *j* is resolved only for the bases of inputs alternatives ``< j``
        left unmatched; the bindings stay as they are.
        """
        extension = partial(_Extension, run.signatures)
        rounds = [
            (
                var_positions[alt.connect_var],
                partial(self._candidates, run, join, alt.axis, exists=True),
                alt.delta,
                extension((join.var, alt_index)),
            )
            for alt_index, alt in enumerate(join.alternatives)
        ]
        if join.optional:
            # Whatever no alternative matched survives unbound: a last round
            # without a table, which matches everything.
            rounds.append(
                (0, None, join.optional_delta, extension((join.var, -1)))
            )
        out = self._rounds(rounds, tuples, stats, checkpoint)
        stats.tuples_produced += len(out)
        return out

    def _apply_checks(self, run, plan, var, tuples, var_positions, stats,
                      checkpoint):
        """The ``contains`` checks on ``var``, in check order.

        Each check is one run of :meth:`_rounds`, one round per level: a
        tuple takes the first level whose node satisfies the expression,
        gaining that level's ``delta`` and the node's keyword score, and
        dies when no level does.
        """
        extension = partial(_Extension, run.signatures)
        for check_index, check in enumerate(plan.checks_by_var.get(var, ())):
            fetch = partial(self._contains_table, check.ftexpr, checkpoint=checkpoint)
            tuples = self._rounds([
                (
                    var_positions[level.var],
                    fetch,
                    level.delta,
                    extension(("contains", var, check_index, level_index)),
                )
                for level_index, level in enumerate(check.levels)
            ], tuples, stats, checkpoint)
        return tuples

    @staticmethod
    def _rounds(rounds, tuples, stats, checkpoint):
        """Each tuple's first matching round, one tuple out per tuple matched.

        A round is ``(position, fetch, delta, extended)``.
        ``fetch(ids, probes)`` returns the table over the ids bound at
        ``position`` among the tuples no earlier round matched; a tuple
        whose id the table maps to a gain leaves as ``(bindings, ss +
        delta, ks + gain, extended[signature])``, and one mapped to ``None``
        (or with nothing bound there) goes on to the next round.  A round
        without ``fetch`` matches whatever is left with gain ``0.0``.
        Tuples no round matched die into ``tuples_failed``; the others keep
        their input order.
        """
        out = [None] * len(tuples)
        pending = tuples  # the inputs no round has matched yet, in order ...
        slots = range(len(tuples))  # ... and where each one's output goes
        for position, fetch, delta, extended in rounds:
            if not pending:
                break
            if fetch is None:
                gain_of = _no_gain
            else:
                # None is in no table: an unbound position never matches.
                gain_of = fetch(*_bound_ids(pending, position)).get
            unmatched = []
            unmatched_slots = []
            pairs = zip(slots, pending)
            for done in range(0, len(pending), CHECKPOINT_STRIDE):
                if done and checkpoint is not None:
                    checkpoint()
                for slot, item in islice(pairs, CHECKPOINT_STRIDE):
                    bindings, ss, ks, signature = item
                    gain = gain_of(bindings[position])
                    if gain is None:
                        unmatched.append(item)
                        unmatched_slots.append(slot)
                    else:
                        out[slot] = (
                            bindings, ss + delta, ks + gain, extended[signature]
                        )
            pending = unmatched
            slots = unmatched_slots
        if pending:
            stats.tuples_failed += len(pending)
            out = [item for item in out if item is not None]
        return out

    def _collect(self, run, plan, tuples, var_positions, k, scheme, stats):
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

        winners = _best_per_key(tuples, answer_of, scheme).items()
        if k is not None and len(winners) > k:
            sort_key = scheme.sort_key
            score = _Score()

            def rank(winner):
                score.structural = winner[1][1]
                score.keyword = winner[1][2]
                return sort_key(score), -winner[0]

            winners = heapq.nlargest(k, winners, key=rank)

        # Each distinct signature pays for one relaxation level and one
        # frozen predicate set, shared by the answers that carry it.
        backend = self._backend
        signatures = run.signatures.values
        described = {}
        answers = []
        for node_id, (_bindings, ss, ks, signature) in winners:
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
                    score=AnswerScore(ss, ks),
                    relaxation_level=found[0],
                    satisfied=found[1],
                    node_id=node_id,
                    source=backend,
                )
            )
        return answers

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
