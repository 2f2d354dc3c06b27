"""Property tests: containment-mapping decisions are extensionally sound."""

from hypothesis import given, settings

from tests.properties.strategies import documents, tree_patterns
from tests.spec.containment import is_contained_in
from tests.spec.evaluate import evaluate


@given(tree_patterns(with_contains=False), tree_patterns(with_contains=False),
       documents())
@settings(max_examples=40, deadline=None)
def test_containment_implies_answer_subset(first, second, doc):
    """If the homomorphism test says Q ⊆ Q', then on any document the
    answers of Q are a subset of the answers of Q'."""
    if is_contained_in(first, second):
        first_ids = {n.node_id for n in evaluate(first, doc)}
        second_ids = {n.node_id for n in evaluate(second, doc)}
        assert first_ids <= second_ids


@given(tree_patterns(with_contains=False))
@settings(max_examples=40, deadline=None)
def test_containment_is_reflexive(query):
    assert is_contained_in(query, query)


@given(tree_patterns(with_contains=False), tree_patterns(with_contains=False),
       tree_patterns(with_contains=False))
@settings(max_examples=30, deadline=None)
def test_containment_is_transitive(first, second, third):
    if is_contained_in(first, second) and is_contained_in(second, third):
        assert is_contained_in(first, third)
