"""Relaxation-space enumeration (Theorem 2 completeness evidence)."""

import pytest

from repro.errors import FleXPathError
from repro.query import parse_query
from tests.spec.containment import are_equivalent, is_strictly_contained_in
from tests.spec.datasets import FIGURE1_QUERIES
from tests.spec.space import enumerate_relaxations, relaxation_distance


@pytest.fixture(scope="module")
def q1():
    return parse_query(FIGURE1_QUERIES["Q1"])


class TestEnumeration:
    def test_space_is_finite_and_nonempty(self, q1):
        space = enumerate_relaxations(q1)
        assert len(space) > 10

    def test_original_not_included(self, q1):
        assert q1 not in enumerate_relaxations(q1)

    def test_all_members_contain_original(self, q1):
        for relaxed in enumerate_relaxations(q1):
            assert is_strictly_contained_in(q1, relaxed)

    def test_figure1_queries_reachable(self, q1):
        """Q2..Q6 of Figure 1 all live in Q1's relaxation space."""
        space = enumerate_relaxations(q1)
        for name in ("Q2", "Q3", "Q4", "Q5", "Q6"):
            target = parse_query(FIGURE1_QUERIES[name])
            assert any(
                are_equivalent(candidate, target) for candidate in space
            ), name

    def test_no_duplicates(self, q1):
        space = enumerate_relaxations(q1)
        assert len(space) == len(set(space))

    def test_limit_guard(self, q1):
        with pytest.raises(FleXPathError, match="limit"):
            enumerate_relaxations(q1, limit=3)

    def test_leafless_query_has_no_structural_space(self):
        query = parse_query("//a")
        assert enumerate_relaxations(query) == []


class TestDistance:
    def test_zero_for_self(self, q1):
        assert relaxation_distance(q1, q1) == 0

    def test_single_step(self, q1):
        from repro.relax import subtree_promotion

        assert relaxation_distance(q1, subtree_promotion(q1, "$3")) == 1

    def test_q2_is_one_step(self, q1):
        # Figure 1 numbering differs, so find the equivalent space member.
        from repro.relax import contains_promotion

        q2 = contains_promotion(q1, q1.contains[0])
        assert relaxation_distance(q1, q2) == 1

    def test_unreachable_returns_none(self, q1):
        other = parse_query("//zebra")
        assert relaxation_distance(q1, other) is None
