"""The four relaxation operators (§3.5) and their soundness."""

import pytest

from repro.errors import InvalidRelaxationError
from repro.query import AD, parse_query
from repro.relax import (
    axis_generalization,
    contains_promotion,
    leaf_deletion,
    subtree_promotion,
)
from tests.spec.containment import is_strictly_contained_in
from tests.spec.datasets import FIGURE1_QUERIES


@pytest.fixture()
def q1():
    return parse_query(FIGURE1_QUERIES["Q1"])


class TestAxisGeneralization:
    def test_pc_becomes_ad(self, q1):
        relaxed = axis_generalization(q1, "$2")
        assert relaxed.axis_of("$2") == AD

    def test_strict_containment(self, q1):
        relaxed = axis_generalization(q1, "$2")
        assert is_strictly_contained_in(q1, relaxed)

    def test_on_ad_edge_raises(self, q1):
        relaxed = axis_generalization(q1, "$2")
        with pytest.raises(InvalidRelaxationError):
            axis_generalization(relaxed, "$2")

    def test_on_root_raises(self, q1):
        with pytest.raises(InvalidRelaxationError):
            axis_generalization(q1, "$1")


class TestLeafDeletion:
    def test_deletes_leaf_and_predicates(self, q1):
        relaxed = leaf_deletion(q1, "$3")
        assert "$3" not in relaxed.variables
        assert relaxed.tag_of("$3") is None

    def test_lambda_on_q2_yields_q5(self):
        """§3.5.2: λ$3(Q2) gives Q5 (delete the algorithm leaf)."""
        q2 = parse_query(FIGURE1_QUERIES["Q2"])
        q5 = parse_query(FIGURE1_QUERIES["Q5"])
        relaxed = leaf_deletion(q2, "$3")
        # Same shape as Q5 up to variable names: compare via mutual
        # containment.
        from tests.spec.containment import are_equivalent

        assert are_equivalent(relaxed, q5) or (
            is_strictly_contained_in(q2, relaxed)
            and relaxed.size() == q5.size()
        )

    def test_strict_containment(self, q1):
        relaxed = leaf_deletion(q1, "$3")
        assert is_strictly_contained_in(q1, relaxed)

    def test_root_deletion_forbidden(self):
        query = parse_query("//a")
        with pytest.raises(InvalidRelaxationError):
            leaf_deletion(query, query.root)

    def test_non_leaf_rejected(self, q1):
        with pytest.raises(InvalidRelaxationError):
            leaf_deletion(q1, "$2")

    def test_distinguished_moves_to_parent(self):
        query = parse_query("//a/b")
        relaxed = leaf_deletion(query, "$2")
        assert relaxed.distinguished == "$1"


class TestSubtreePromotion:
    def test_sigma_on_q1_yields_q3(self):
        """§3.5.3: σ$3(Q1) gives Q3."""
        q1 = parse_query(FIGURE1_QUERIES["Q1"])
        q3 = parse_query(FIGURE1_QUERIES["Q3"])
        relaxed = subtree_promotion(q1, "$3")
        from tests.spec.containment import are_equivalent

        assert are_equivalent(relaxed, q3)

    def test_promoted_edge_is_ad(self, q1):
        relaxed = subtree_promotion(q1, "$3")
        assert relaxed.parent_of("$3") == "$1"
        assert relaxed.axis_of("$3") == AD

    def test_subtree_moves_whole(self):
        query = parse_query("//a/b/c[./d]")
        relaxed = subtree_promotion(query, "$3")
        assert relaxed.parent_of("$3") == "$1"
        assert relaxed.parent_of("$4") == "$3"  # d stays under c

    def test_strict_containment(self, q1):
        assert is_strictly_contained_in(q1, subtree_promotion(q1, "$3"))

    def test_without_grandparent_raises(self, q1):
        with pytest.raises(InvalidRelaxationError):
            subtree_promotion(q1, "$2")

    def test_root_raises(self, q1):
        with pytest.raises(InvalidRelaxationError):
            subtree_promotion(q1, "$1")


class TestContainsPromotion:
    def test_kappa_on_q1_yields_q2(self):
        """§3.5.4: κ$4(Q1) gives Q2."""
        q1 = parse_query(FIGURE1_QUERIES["Q1"])
        q2 = parse_query(FIGURE1_QUERIES["Q2"])
        relaxed = contains_promotion(q1, q1.contains[0])
        from tests.spec.containment import are_equivalent

        assert are_equivalent(relaxed, q2)

    def test_moves_to_parent(self, q1):
        relaxed = contains_promotion(q1, q1.contains[0])
        assert relaxed.contains[0].var == "$2"

    def test_strict_containment(self, q1):
        assert is_strictly_contained_in(q1, contains_promotion(q1, q1.contains[0]))

    def test_on_root_raises(self):
        query = parse_query('//a[.contains("x")]')
        with pytest.raises(InvalidRelaxationError):
            contains_promotion(query, query.contains[0])

    def test_foreign_predicate_raises(self, q1):
        other = parse_query('//a[./b[.contains("zzz")]]')
        with pytest.raises(InvalidRelaxationError):
            contains_promotion(q1, other.contains[0])


class TestComposition:
    def test_q1_to_q6_by_composition(self):
        """§3.3: repeated operators turn Q1 into Q6."""
        q1 = parse_query(FIGURE1_QUERIES["Q1"])
        q6 = parse_query(FIGURE1_QUERIES["Q6"])
        current = contains_promotion(q1, q1.contains[0])  # -> Q2
        current = contains_promotion(current, current.contains[0])  # contains at $2->$1? no: $2 -> $1
        current = leaf_deletion(current, "$3")
        current = leaf_deletion(current, "$4")
        current = leaf_deletion(current, "$2")
        from tests.spec.containment import are_equivalent

        assert are_equivalent(current, q6)

    def test_every_single_application_is_sound(self):
        """Theorem 2 soundness: each operator output strictly contains
        its input."""
        from tests.spec.space import applicable_relaxations

        q1 = parse_query(FIGURE1_QUERIES["Q1"])
        count = 0
        for _name, _description, relaxed in applicable_relaxations(q1):
            assert is_strictly_contained_in(q1, relaxed)
            count += 1
        assert count >= 5
