"""Query containment: the Figure 1 lattice and homomorphism checks."""

import pytest

from repro.query import parse_query
from tests.spec.containment import (
    are_equivalent,
    find_homomorphism,
    is_contained_in,
    is_strictly_contained_in,
)
from tests.spec.datasets import FIGURE1_QUERIES


@pytest.fixture(scope="module")
def figure1():
    return {name: parse_query(text) for name, text in FIGURE1_QUERIES.items()}


class TestFigure1Lattice:
    """§1: Q1 ⊂ Q2, Q1 ⊂ Q3, Q2 ⊂ Q4, Q3 ⊂ Q4, Q4 ⊂ Q5, Q5 ⊂ Q6."""

    @pytest.mark.parametrize(
        "inner,outer",
        [
            ("Q1", "Q2"),
            ("Q1", "Q3"),
            ("Q2", "Q4"),
            ("Q3", "Q4"),
            ("Q4", "Q5"),
            ("Q5", "Q6"),
            ("Q1", "Q6"),
        ],
    )
    def test_containments(self, figure1, inner, outer):
        assert is_strictly_contained_in(figure1[inner], figure1[outer])

    @pytest.mark.parametrize(
        "inner,outer",
        [("Q2", "Q1"), ("Q3", "Q1"), ("Q6", "Q1"), ("Q2", "Q3"), ("Q3", "Q2")],
    )
    def test_non_containments(self, figure1, inner, outer):
        assert not is_contained_in(figure1[inner], figure1[outer])


class TestBasics:
    def test_self_containment(self, figure1):
        for query in figure1.values():
            assert is_contained_in(query, query)
            assert are_equivalent(query, query)

    def test_pc_contained_in_ad(self):
        child = parse_query("//a/b")
        descendant = parse_query("//a//b")
        assert is_strictly_contained_in(child, descendant)

    def test_extra_branch_restricts(self):
        broad = parse_query("//a[./b]")
        narrow = parse_query("//a[./b and ./c]")
        assert is_strictly_contained_in(narrow, broad)

    def test_different_tags_incomparable(self):
        assert not is_contained_in(parse_query("//a"), parse_query("//b"))
        assert not is_contained_in(parse_query("//b"), parse_query("//a"))

    def test_longer_path_contained_in_descendant(self):
        deep = parse_query("//a/b/c")
        shallow = parse_query("//a//c")
        # Distinguished nodes: c in both.
        assert is_contained_in(deep, shallow)

    def test_distinguished_node_matters(self):
        returns_a = parse_query("//a[./b]")
        returns_b = parse_query("//a/b")
        assert not is_contained_in(returns_a, returns_b)
        assert not is_contained_in(returns_b, returns_a)

    def test_homomorphism_mapping_returned(self, figure1):
        mapping = find_homomorphism(figure1["Q3"], figure1["Q1"])
        assert mapping is not None
        assert mapping["$1"] == "$1"  # article -> article (distinguished)

    def test_no_homomorphism_returns_none(self):
        assert find_homomorphism(parse_query("//a/b"), parse_query("//a")) is None


class TestAgainstEvaluation:
    """Containment claims must hold extensionally on sample documents."""

    def test_containment_respected_on_documents(self, figure1, article_doc):
        from tests.spec.evaluate import evaluate

        answers = {
            name: {n.node_id for n in evaluate(query, article_doc)}
            for name, query in figure1.items()
        }
        for inner, outer in [
            ("Q1", "Q2"),
            ("Q1", "Q3"),
            ("Q2", "Q4"),
            ("Q3", "Q4"),
            ("Q4", "Q5"),
            ("Q5", "Q6"),
        ]:
            assert answers[inner] <= answers[outer], (inner, outer)
