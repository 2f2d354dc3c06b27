"""Property tests: closure, minimization, and Theorem 1 uniqueness."""

import random

from hypothesis import given, settings

from tests.properties.strategies import tree_patterns
from tests.spec.closure import closure, closure_set
from tests.spec.minimize import core, minimize


@given(tree_patterns())
@settings(max_examples=80, deadline=None)
def test_closure_contains_original(query):
    assert query.logical_predicates() <= closure(query)


@given(tree_patterns())
@settings(max_examples=80, deadline=None)
def test_closure_idempotent(query):
    closed = closure(query)
    assert closure_set(closed) == closed


@given(tree_patterns())
@settings(max_examples=80, deadline=None)
def test_minimize_is_subset_with_same_closure(query):
    closed = closure(query)
    minimal = minimize(closed)
    assert minimal <= closed
    assert closure_set(minimal) == closed


@given(tree_patterns())
@settings(max_examples=50, deadline=None)
def test_minimize_order_independent(query):
    """Theorem 1: the core is unique regardless of inspection order."""
    closed = list(closure(query))
    reference = minimize(closed)
    rng = random.Random(0)
    for _ in range(3):
        rng.shuffle(closed)
        assert minimize(closed) == reference


@given(tree_patterns())
@settings(max_examples=50, deadline=None)
def test_minimal_has_no_redundant_predicate(query):
    from tests.spec.closure import is_redundant

    minimal = minimize(closure(query))
    for predicate in minimal:
        assert not is_redundant(predicate, minimal)


@given(tree_patterns())
@settings(max_examples=50, deadline=None)
def test_core_is_equivalent_tpq(query):
    from tests.spec.containment import are_equivalent

    rebuilt = core(query)
    assert are_equivalent(rebuilt, query)
