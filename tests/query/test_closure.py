"""Closure computation and the inference rules of Figure 3."""

from repro.ir import And, Term
from repro.query import Ad, Contains, Pc, Tag, parse_query
from tests.spec.closure import (
    closure,
    closure_set,
    derives,
    equivalent_sets,
    is_redundant,
)

XML_STREAMING = And((Term("xml"), Term("streaming")))

Q1 = parse_query(
    '//article[./section[./algorithm and ./paragraph['
    '.contains("XML" and "streaming")]]]'
)


class TestInferenceRules:
    def test_pc_implies_ad(self):
        closed = closure_set({Pc("$1", "$2")})
        assert Ad("$1", "$2") in closed

    def test_ad_transitivity(self):
        closed = closure_set({Ad("$1", "$2"), Ad("$2", "$3")})
        assert Ad("$1", "$3") in closed

    def test_pc_chain_derives_ad(self):
        closed = closure_set({Pc("$1", "$2"), Pc("$2", "$3")})
        assert Ad("$1", "$3") in closed

    def test_contains_propagates_up(self):
        closed = closure_set({Ad("$1", "$2"), Contains("$2", Term("x"))})
        assert Contains("$1", Term("x")) in closed

    def test_contains_propagates_through_chain(self):
        closed = closure_set(
            {Pc("$1", "$2"), Pc("$2", "$3"), Contains("$3", Term("x"))}
        )
        assert Contains("$1", Term("x")) in closed
        assert Contains("$2", Term("x")) in closed

    def test_contains_never_propagates_down(self):
        closed = closure_set({Pc("$1", "$2"), Contains("$1", Term("x"))})
        assert Contains("$2", Term("x")) not in closed

    def test_tags_unchanged(self):
        closed = closure_set({Tag("$1", "a"), Pc("$1", "$2")})
        assert Tag("$1", "a") in closed
        assert Tag("$2", "a") not in closed


class TestFigure4:
    """The closure of Q1 must match Figure 4 exactly."""

    def test_closure_of_q1(self):
        closed = closure(Q1)
        expected = {
            Pc("$1", "$2"),
            Pc("$2", "$3"),
            Pc("$2", "$4"),
            Tag("$1", "article"),
            Tag("$2", "section"),
            Tag("$3", "algorithm"),
            Tag("$4", "paragraph"),
            Contains("$4", XML_STREAMING),
            Ad("$1", "$2"),
            Ad("$2", "$3"),
            Ad("$2", "$4"),
            Ad("$1", "$3"),
            Ad("$1", "$4"),
            Contains("$2", XML_STREAMING),
            Contains("$1", XML_STREAMING),
        }
        assert closed == expected


class TestRedundancy:
    def test_derived_ad_is_redundant(self):
        predicates = {Pc("$1", "$2"), Ad("$2", "$3"), Ad("$1", "$3")}
        assert is_redundant(Ad("$1", "$3"), predicates)

    def test_base_predicates_not_redundant(self):
        predicates = {Pc("$1", "$2"), Ad("$2", "$3"), Ad("$1", "$3")}
        assert not is_redundant(Pc("$1", "$2"), predicates)
        assert not is_redundant(Ad("$2", "$3"), predicates)

    def test_derives(self):
        assert derives({Pc("$1", "$2")}, Ad("$1", "$2"))
        assert not derives({Ad("$1", "$2")}, Pc("$1", "$2"))

    def test_closure_idempotent(self):
        once = closure_set(Q1.logical_predicates())
        assert closure_set(once) == once

    def test_equivalent_sets(self):
        full = closure(Q1)
        assert equivalent_sets(Q1.logical_predicates(), full)
        assert not equivalent_sets(
            Q1.logical_predicates(), full - {Pc("$2", "$3"), Ad("$2", "$3")}
        )
