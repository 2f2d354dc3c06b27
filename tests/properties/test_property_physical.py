"""Property: the lowering is invisible in every result.

Plan by plan, the plan as built (pre-order, binary), the lowered plan (joins
re-ordered, operator chosen) and — where eligible — the lowered plan under
the twig operator return the same answers with the same scores.  (Scores
are compared to nine places, like everywhere else in these suites: a join
order is an order of float additions, so Theorem 3's invariance holds to the
last ulp only in real arithmetic.)

Against any warm cache, the twig operator's subtree tables are keyed by
everything they depend on: every strict plan of a schedule under the twig
operator returns what the binary STRICT pipeline returns — with the cache
off, cold, and warmed by the *other* levels of the same schedule, with and
without IR-first pool restrictions.

Engine by engine, the lowering may pick the twig join or the binary
pipeline per plan, so the two must be interchangeable: with the operator
choice pinned to twig and pinned to binary, every algorithm must produce the
*same ranked answer list* — node identity, structural score, keyword score —
under every ranking scheme, sharded and unsharded, with the evaluation cache
on or off.  (Eligibility still gates the pinned choice: plans the twig
operator cannot evaluate exactly stay binary, which is itself part of the
contract under test.)
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.sharded import RoundRobinRouter, ShardedBackend
from repro.collection import Corpus
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
from repro.plans.plan import BINARY, TWIG
from repro.query.predicates import Contains
from repro.query.tpq import TPQ
from repro.rank import COMBINED, KEYWORD_FIRST, STRUCTURE_FIRST
from repro.rank.scores import AnswerScore
from repro.relax import RelaxationSchedule
from repro.sharding import ShardedQueryContext
from repro.topk import (
    DPO,
    SSO,
    Hybrid,
    IRFirstDPO,
    NaiveRewriting,
    QueryContext,
)
from repro.topk.ir_first import _restrictions_for

from tests.plans.pinning import pinned_operator
from tests.properties.strategies import WORDS, documents, tree_patterns

STRATEGIES = (DPO, SSO, Hybrid, NaiveRewriting, IRFirstDPO)
SCHEMES = (STRUCTURE_FIRST, KEYWORD_FIRST, COMBINED)


def _corpus(docs):
    corpus = Corpus()
    for index, doc in enumerate(docs):
        corpus.add_document(doc, name="doc%d" % index)
    return corpus


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


def assert_lowering_invisible(context, plans, k, scheme=STRUCTURE_FIRST):
    """Each plan as built, lowered, and lowered-under-twig agree.

    Strict mode returns every match, so whole answer sets are compared.  A
    pruning mode may drop, at whichever join its order reaches first, tuples
    that cannot make the top K — so there the ranked top K is compared.
    """
    executor = PlanExecutor(context.backend, context.ir)
    for plan in plans:
        assert plan.operator == BINARY
        lowered = lower_plan(plan, context.statistics)
        assert sorted(join.var for join in lowered.joins) == sorted(
            join.var for join in plan.joins
        )
        variants = [lowered]
        conjunctive = twig_eligible(lowered)
        if conjunctive:
            variants.append(replace(lowered, operator=TWIG))
        expected = _observed(
            executor.run(plan, mode=STRICT).answers, conjunctive
        )
        for variant in variants:
            got = _observed(
                executor.run(variant, mode=STRICT).answers, conjunctive
            )
            assert got == expected, variant.describe()
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
    plans = strict_plans(context, schedule) + encoded_plans(schedule)
    assert_lowering_invisible(context, plans, k, scheme)


def _reworded(query, word):
    """``query`` with every ``contains`` asking for ``word`` instead."""
    return TPQ(
        query.root,
        {child: (parent, axis) for parent, child, axis in query.edges()},
        {var: query.tag_of(var) for var in query.variables},
        query.distinguished,
        contains=[Contains(predicate.var, Term(word)) for predicate in query.contains],
    )


@given(documents(), tree_patterns(), st.sampled_from(WORDS), st.randoms())
@settings(max_examples=40, deadline=None)
def test_twig_equals_binary_against_any_warm_cache(doc, query, word, rng):
    """Node ids, round-9 scores, levels and satisfied sets per strict plan.

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
            plan = lower_plan(plan, context.statistics)
            for restrictions in (
                None, _restrictions_for(context, entry.query), {chosen: subset}
            ):
                runs.append((plan, restrictions))
    oracle = PlanExecutor(context.backend, context.ir)
    for index, (plan, restrictions) in enumerate(runs):
        assert plan.operator == TWIG
        expected = _observed(
            oracle.run(
                replace(plan, operator=BINARY), pool_restrictions=restrictions
            ).answers,
            True,
        )
        warm = PlanExecutor(context.backend, context.ir, EvaluationCache())
        for other, (other_plan, other_restrictions) in enumerate(runs):
            if other != index:
                warm.run(other_plan, pool_restrictions=other_restrictions)
        for executor in (
            oracle,
            PlanExecutor(context.backend, context.ir, EvaluationCache()),
            warm,
        ):
            got = executor.run(plan, pool_restrictions=restrictions)
            assert _observed(got.answers, True) == expected, plan.describe()


def _ranked(result):
    return [
        (
            answer.node_id,
            round(answer.score.structural, 9),
            round(answer.score.keyword, 9),
        )
        for answer in result.answers
    ]


def _assert_equivalent(docs, query, k, scheme, cached):
    twig = QueryContext(_corpus(docs))
    binary = QueryContext(_corpus(docs))
    twig.eval_cache.enabled = binary.eval_cache.enabled = cached
    for strategy in STRATEGIES:
        with pinned_operator(BINARY):
            expected = strategy(binary).top_k(query, k, scheme=scheme)
        with pinned_operator(TWIG):
            got = strategy(twig).top_k(query, k, scheme=scheme)
        assert _ranked(got) == _ranked(expected), strategy.__name__
    # The pin reached both compiles: strict plans are always eligible.
    assert twig.compile(query).strict_plan(0).operator == TWIG
    assert binary.compile(query).strict_plan(0).operator == BINARY


@given(
    st.lists(documents(), min_size=1, max_size=3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_structure_first_identical(docs, query, k, cached):
    _assert_equivalent(docs, query, k, STRUCTURE_FIRST, cached)


@given(
    st.lists(documents(), min_size=1, max_size=3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_keyword_first_identical(docs, query, k, cached):
    _assert_equivalent(docs, query, k, KEYWORD_FIRST, cached)


@given(
    st.lists(documents(), min_size=1, max_size=3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_combined_identical(docs, query, k, cached):
    _assert_equivalent(docs, query, k, COMBINED, cached)


def _sharded_context(docs, shard_count):
    backend = ShardedBackend.in_memory(shard_count, router=RoundRobinRouter())
    for index, doc in enumerate(docs):
        backend.add_document(doc, name="doc%d" % index)
    return ShardedQueryContext(backend)


@given(
    st.lists(documents(), min_size=2, max_size=3),
    st.integers(1, 3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
    st.sampled_from(SCHEMES),
)
@settings(max_examples=25, deadline=None)
def test_sharded_identical(docs, shard_count, query, k, scheme):
    twig = _sharded_context(docs, shard_count)
    binary = _sharded_context(docs, shard_count)
    try:
        for strategy in STRATEGIES:
            with pinned_operator(BINARY):
                expected = strategy(binary).top_k(query, k, scheme=scheme)
            with pinned_operator(TWIG):
                got = strategy(twig).top_k(query, k, scheme=scheme)
            assert _ranked(got) == _ranked(expected), strategy.__name__
        assert twig.compile(query).strict_plan(0).operator == TWIG
        assert binary.compile(query).strict_plan(0).operator == BINARY
    finally:
        twig.close()
        binary.close()
