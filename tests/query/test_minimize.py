"""Minimization and the unique core (Theorem 1, Figure 5)."""

import pytest

from repro.ir import And, Term
from repro.query import Ad, Contains, Pc, Tag, parse_query
from tests.spec.closure import closure
from tests.spec.minimize import (
    NotATreePattern,
    core,
    core_of_set,
    minimize,
    reconstruct_tpq,
)

XML_STREAMING = And((Term("xml"), Term("streaming")))

Q1 = parse_query(
    '//article[./section[./algorithm and ./paragraph['
    '.contains("XML" and "streaming")]]]'
)


class TestMinimize:
    def test_core_of_closure_recovers_query(self):
        assert minimize(closure(Q1)) == frozenset(Q1.logical_predicates())

    def test_removes_transitive_ad(self):
        minimal = minimize({Pc("$1", "$2"), Ad("$2", "$3"), Ad("$1", "$3")})
        assert minimal == frozenset({Pc("$1", "$2"), Ad("$2", "$3")})

    def test_removes_promoted_contains(self):
        minimal = minimize(
            {Pc("$1", "$2"), Contains("$2", Term("x")), Contains("$1", Term("x"))}
        )
        assert Contains("$1", Term("x")) not in minimal

    def test_minimal_set_is_fixpoint(self):
        minimal = minimize(closure(Q1))
        assert minimize(minimal) == minimal

    def test_order_independence_of_minimization(self):
        # Theorem 1: the core is unique, so shuffling cannot matter.
        import random

        closed = list(closure(Q1))
        reference = minimize(closed)
        rng = random.Random(5)
        for _ in range(5):
            rng.shuffle(closed)
            assert minimize(closed) == reference


class TestCore:
    def test_core_equals_original_for_minimal_query(self):
        assert core(Q1) == Q1

    def test_figure5_core(self):
        """Dropping pc($2,$3), ad($2,$3) from Q1's closure leaves Figure 5."""
        remaining = closure(Q1) - {Pc("$2", "$3"), Ad("$2", "$3")}
        rebuilt = core_of_set(remaining, "$1")
        assert rebuilt.parent_of("$3") == "$1"
        assert rebuilt.axis_of("$3") == "ad"
        assert rebuilt.axis_of("$2") == "pc"
        assert rebuilt.contains == (Contains("$4", XML_STREAMING),)

    def test_core_strips_redundant_ad_edge(self):
        query = parse_query("//a/b[./c]")
        assert core(query) == query


class TestReconstruct:
    def test_two_roots_rejected(self):
        with pytest.raises(NotATreePattern, match="roots"):
            reconstruct_tpq({Pc("$1", "$2"), Pc("$3", "$4")}, "$1")

    def test_two_incoming_edges_rejected(self):
        with pytest.raises(NotATreePattern, match="two incoming"):
            reconstruct_tpq(
                {Pc("$1", "$3"), Pc("$2", "$3"), Ad("$1", "$2")}, "$1"
            )

    def test_missing_distinguished_rejected(self):
        with pytest.raises(NotATreePattern, match="distinguished"):
            reconstruct_tpq({Pc("$1", "$2")}, "$9")

    def test_tags_and_contains_preserved(self):
        rebuilt = reconstruct_tpq(
            {Pc("$1", "$2"), Tag("$1", "a"), Contains("$2", Term("x"))}, "$1"
        )
        assert rebuilt.tag_of("$1") == "a"
        assert rebuilt.contains[0].var == "$2"

    def test_dropping_pc_from_logical_form_disconnects(self):
        # §3.1: dropping pc($1,$2) from Q1's *logical expression* (not the
        # closure) leaves a disconnected graph — not a TPQ.
        predicates = Q1.logical_predicates() - {Pc("$1", "$2")}
        with pytest.raises(NotATreePattern):
            core_of_set(predicates, "$1")

    def test_dropping_pc_from_closure_is_fine(self):
        # ... but the same drop on the closure keeps ad($1,$2): still a TPQ.
        predicates = closure(Q1) - {Pc("$1", "$2")}
        rebuilt = core_of_set(predicates, "$1")
        assert rebuilt.axis_of("$2") == "ad"
