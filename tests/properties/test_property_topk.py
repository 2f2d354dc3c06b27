"""Property tests: the three top-K algorithms against the specification.

The specification of flexible top-K under structure-first ranking: evaluate
every schedule level with the reference evaluator, score answers by first
level reached, rank, cut at K. All three algorithms must return answer sets
whose structural scores match the specification's (node identity may differ
only within tied scores).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rank import STRUCTURE_FIRST
from repro.topk import DPO, Hybrid, SSO, QueryContext

from tests.properties.strategies import documents, tree_patterns
from tests.spec.evaluate import evaluate


def specification_scores(context, query, k):
    """Reference top-K structural scores via the naive evaluator."""
    schedule = context.schedule(query)
    oracle = lambda node, expr: context.ir.satisfies(node, expr)
    best = {}
    for level in range(len(schedule) + 1):
        score = schedule.structural_score(level)
        for node in evaluate(
            schedule.level(level).query, context.document, contains_oracle=oracle
        ):
            if node.node_id not in best:
                best[node.node_id] = score
    return sorted(best.values(), reverse=True)[:k]


@given(tree_patterns(with_contains=False), documents(), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_dpo_matches_specification(query, doc, k):
    context = QueryContext(doc)
    expected = specification_scores(context, query, k)
    result = DPO(context).top_k(query, k, scheme=STRUCTURE_FIRST)
    got = [a.score.structural for a in result.answers]
    assert len(got) == len(expected)
    for left, right in zip(got, expected):
        assert abs(left - right) < 1e-9


@given(tree_patterns(with_contains=False), documents(), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_sso_never_scores_below_specification(query, doc, k):
    """SSO's per-predicate scores dominate the per-level specification."""
    context = QueryContext(doc)
    expected = specification_scores(context, query, k)
    result = SSO(context).top_k(query, k, scheme=STRUCTURE_FIRST)
    got = [a.score.structural for a in result.answers]
    assert len(got) == len(expected)
    for left, right in zip(got, expected):
        assert left >= right - 1e-9


@given(tree_patterns(), documents(), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_sso_hybrid_identical(query, doc, k):
    context = QueryContext(doc)
    sso = SSO(context).top_k(query, k)
    hybrid = Hybrid(context).top_k(query, k)
    assert [(a.node_id, round(a.score.structural, 9)) for a in sso.answers] == [
        (a.node_id, round(a.score.structural, 9)) for a in hybrid.answers
    ]


@given(tree_patterns(), documents(), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_all_algorithms_return_exact_answers_first(query, doc, k):
    context = QueryContext(doc)
    oracle = lambda node, expr: context.ir.satisfies(node, expr)
    exact = {n.node_id for n in evaluate(query, doc, contains_oracle=oracle)}
    for algorithm in (DPO(context), SSO(context), Hybrid(context)):
        result = algorithm.top_k(query, k)
        take = min(k, len(exact))
        top_ids = {a.node_id for a in result.answers[:take]}
        assert top_ids <= exact or not exact
