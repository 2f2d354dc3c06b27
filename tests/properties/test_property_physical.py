"""Property: the lowering and the operator are invisible in every result.

Plan by plan, the plan as built (pre-order) and the lowered plan (joins
re-ordered) return the same answers with the same scores on the binary
pipeline, and — where the plan is conjunctive — on the twig operator too.
(Scores are compared to nine places, like everywhere else in these suites:
a join order is an order of float additions, so Theorem 3's invariance holds
to the last ulp only in real arithmetic.)

Against any warm cache, the twig operator's subtree tables are keyed by
everything they depend on: every strict plan of a schedule returns what the
§2.1 specification evaluator (:func:`tests.spec.evaluate.find_matches`)
says, scored with the context's IR engine, and what the binary pipeline
returns — with the cache off, cold, and warmed by the *other* levels of the
same schedule, with and without IR-first pool restrictions.

That every strategy returns the same ranked answers cached and uncached, and
sharded and unsharded, is ``test_property_cache.py``'s and
``test_property_sharded.py``'s to check.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.ftexpr import Term
from repro.plans import (
    HYBRID_MODE,
    EvaluationCache,
    SSO_MODE,
    STRICT,
    PlanExecutor,
    build_encoded_plan,
    build_strict_plan,
    lower_plan,
    twig_eligible,
)
from repro.query.predicates import Contains
from repro.query.tpq import TPQ
from repro.rank import COMBINED, KEYWORD_FIRST, STRUCTURE_FIRST
from repro.rank.scores import AnswerScore
from repro.relax import RelaxationSchedule
from repro.topk import QueryContext
from repro.topk.ir_first import _restrictions_for

from tests.properties.strategies import WORDS, documents, tree_patterns
from tests.spec.evaluate import find_matches

SCHEMES = (STRUCTURE_FIRST, KEYWORD_FIRST, COMBINED)


def _observed(answers, conjunctive):
    """Node, scores and — for a conjunctive plan — what the answer satisfied.

    A plan with alternatives can reach one score through two predicate sets,
    and which of two tied tuples stands for an answer is an accident of
    order; a conjunctive plan has exactly one signature to report.
    """
    return sorted(
        (
            answer.node_id,
            round(answer.score.structural, 9),
            round(answer.score.keyword, 9),
        ) + (
            (answer.relaxation_level, answer.satisfied) if conjunctive else ()
        )
        for answer in answers
    )


def _top(answers, k, scheme, conjunctive):
    """The ranked top K, ranked on the scores as they are compared."""
    return sorted(
        _observed(answers, conjunctive),
        key=lambda row: (scheme.sort_key(AnswerScore(row[1], row[2])), -row[0]),
        reverse=True,
    )[:k]


def strict_plans(context, schedule):
    """The strict plan of every schedule level, as built."""
    return [
        build_strict_plan(entry.query, context.weights)
        for entry in schedule.entries
    ]


def encoded_plans(schedule):
    """The encoded plan of every schedule level, as built."""
    return [
        build_encoded_plan(schedule, level)
        for level in range(len(schedule) + 1)
    ]


def assert_lowering_invisible(context, plans, strict, k, scheme=STRUCTURE_FIRST):
    """Each plan as built and lowered (as the ``strict`` family) agree.

    Unpruned — the binary pipeline without ``k``, or the twig operator on a
    conjunctive plan — every match comes back, so whole answer sets are
    compared.  A pruning mode may drop, at whichever join its order reaches
    first, tuples that cannot make the top K — so there the ranked top K is
    compared.
    """
    executor = PlanExecutor(context.backend, context.ir)
    for plan in plans:
        lowered = lower_plan(plan, context.statistics, strict=strict)
        assert sorted(join.var for join in lowered.joins) == sorted(
            join.var for join in plan.joins
        )
        conjunctive = twig_eligible(lowered)
        runs = [(lowered, SSO_MODE)]
        if conjunctive:
            runs += [(plan, STRICT), (lowered, STRICT)]
        expected = _observed(
            executor.run(plan, mode=SSO_MODE).answers, conjunctive
        )
        for variant, mode in runs:
            got = _observed(executor.run(variant, mode=mode).answers, conjunctive)
            assert got == expected, (mode, variant.describe())
        for mode in (SSO_MODE, HYBRID_MODE):
            as_built, as_lowered = (
                _top(
                    executor.run(each, k=k, scheme=scheme, mode=mode).answers,
                    k, scheme, conjunctive,
                )
                for each in (plan, lowered)
            )
            assert as_lowered == as_built, (mode, lowered.describe())


@given(
    documents(),
    tree_patterns(),
    st.integers(1, 8),
    st.sampled_from(SCHEMES),
)
@settings(max_examples=50, deadline=None)
def test_lowering_is_invisible_plan_by_plan(doc, query, k, scheme):
    context = QueryContext(doc)
    schedule = RelaxationSchedule(query, context.penalties)
    assert_lowering_invisible(context, strict_plans(context, schedule), True, k, scheme)
    assert_lowering_invisible(context, encoded_plans(schedule), False, k, scheme)


def _reworded(query, word):
    """``query`` with every ``contains`` asking for ``word`` instead."""
    return TPQ(
        query.root,
        {child: (parent, axis) for parent, child, axis in query.edges()},
        {var: query.tag_of(var) for var in query.variables},
        query.distinguished,
        contains=[Contains(predicate.var, Term(word)) for predicate in query.contains],
    )


def _specified(context, query, plan, restrictions):
    """The §2.1 answers of a strict plan's query, scored as the plan scores.

    Every answer carries the plan's base structural score and, as keyword
    score, the best Σ ``ir.score`` of the query's ``contains`` predicates
    over the answer's matches; a restricted variable binds only its pool (a
    restriction on a variable the level dropped restricts nothing), and a
    corpus' virtual root binds nothing, as in the executor's pools.
    """
    ir = context.ir
    best = {}
    for match in find_matches(
        query, context.document, contains_oracle=ir.satisfies,
        virtual_root_id=context.backend.virtual_root_id,
    ):
        if restrictions and any(
            var in match and match[var].node_id not in allowed
            for var, allowed in restrictions.items()
        ):
            continue
        keyword = 0.0
        for predicate in query.contains:
            keyword += ir.score(match[predicate.var], predicate.ftexpr)
        node_id = match[query.distinguished].node_id
        if node_id not in best or keyword > best[node_id]:
            best[node_id] = keyword
    return sorted(
        (node_id, round(plan.base_score, 9), round(keyword, 9))
        for node_id, keyword in best.items()
    )


@given(documents(), tree_patterns(), st.sampled_from(WORDS), st.randoms())
@settings(max_examples=40, deadline=None)
def test_twig_equals_binary_against_any_warm_cache(doc, query, word, rng):
    """Node ids and round-9 scores per strict plan against the specification
    evaluator, and levels and satisfied sets against the binary pipeline.

    Each plan runs unrestricted, under its IR-first restriction and with a
    random id subset on one variable; the warm cache has seen every other
    run of the schedule, and the same pattern asking for another word —
    levels that differ from these in tag, axis, restriction, check or
    child subtree, which the subtree signature must all tell apart.
    (Attribute predicates are pinned in ``tests/plans/test_eval_cache.py``.)
    """
    context = QueryContext(doc)
    variables = list(query.variables)
    chosen = rng.choice(variables)
    subset = frozenset(
        node_id for node_id in range(len(context.backend)) if rng.random() < 0.5
    )
    runs = []
    for each in (query, _reworded(query, word)):
        schedule = RelaxationSchedule(each, context.penalties)
        for plan, entry in zip(strict_plans(context, schedule), schedule.entries):
            plan = lower_plan(plan, context.statistics, strict=True)
            for restrictions in (
                None, _restrictions_for(context.executor, entry.query, {}),
                {chosen: subset},
            ):
                runs.append((plan, entry.query, restrictions))
    bare = PlanExecutor(context.backend, context.ir)
    for index, (plan, level_query, restrictions) in enumerate(runs):
        specified = _specified(context, level_query, plan, restrictions)
        binary = _observed(
            bare.run(plan, mode=SSO_MODE, pool_restrictions=restrictions).answers,
            True,
        )
        assert [row[:3] for row in binary] == specified, plan.describe()
        warm = PlanExecutor(context.backend, context.ir, EvaluationCache())
        for other, (other_plan, _query, other_restrictions) in enumerate(runs):
            if other != index:
                warm.run(other_plan, pool_restrictions=other_restrictions)
        for executor in (
            bare,
            PlanExecutor(context.backend, context.ir, EvaluationCache()),
            warm,
        ):
            got = executor.run(plan, pool_restrictions=restrictions)
            assert _observed(got.answers, True) == binary, plan.describe()
