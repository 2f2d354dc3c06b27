"""End-to-end reproduction of the paper's conceptual figures and examples.

- Figure 1: the query lattice Q1..Q6 and who catches which article;
- Figure 2/4: logical expression and closure of Q1;
- Figure 5: the core after dropping pc($2,$3), ad($2,$3);
- Figure 6 / Example 1: the closure of Q5 and the penalty expression;
- §3.5 operator examples: σ$3(Q1)=Q3, κ$4(Q1)=Q2, λ$3(Q2)=Q5.
"""

import pytest

from repro import FleXPath
from repro.ir import And, Term
from repro.query import Ad, Contains, Pc, Tag, parse_query
from repro.relax import contains_promotion, leaf_deletion, subtree_promotion
from tests.spec.closure import closure
from tests.spec.containment import are_equivalent
from tests.spec.datasets import FIGURE1_QUERIES, article_corpus
from tests.spec.evaluate import evaluate
from tests.spec.minimize import core_of_set

XML_STREAMING = And((Term("xml"), Term("streaming")))


@pytest.fixture(scope="module")
def queries():
    return {name: parse_query(text) for name, text in FIGURE1_QUERIES.items()}


@pytest.fixture(scope="module")
def corpus():
    return article_corpus(articles=25, seed=11)


@pytest.fixture(scope="module")
def engine(corpus):
    return FleXPath(corpus)


class TestFigure2LogicalExpression:
    def test_q1_logical_expression(self, queries):
        expected = {
            Pc("$1", "$2"),
            Pc("$2", "$3"),
            Pc("$2", "$4"),
            Tag("$1", "article"),
            Tag("$2", "section"),
            Tag("$3", "algorithm"),
            Tag("$4", "paragraph"),
            Contains("$4", XML_STREAMING),
        }
        assert queries["Q1"].logical_predicates() == expected


class TestFigure4Closure:
    def test_closure_adds_exactly_the_derived_predicates(self, queries):
        derived = closure(queries["Q1"]) - queries["Q1"].logical_predicates()
        assert derived == {
            Ad("$1", "$2"),
            Ad("$2", "$3"),
            Ad("$2", "$4"),
            Ad("$1", "$3"),
            Ad("$1", "$4"),
            Contains("$2", XML_STREAMING),
            Contains("$1", XML_STREAMING),
        }


class TestFigure5Core:
    def test_core_after_dropping_section_algorithm_edge(self, queries):
        remaining = closure(queries["Q1"]) - {Pc("$2", "$3"), Ad("$2", "$3")}
        rebuilt = core_of_set(remaining, "$1")
        # Figure 5: pc($1,$2) ∧ pc($2,$4) ∧ ad($1,$3) + tags + contains.
        assert rebuilt.structural_predicates() == {
            Pc("$1", "$2"),
            Pc("$2", "$4"),
            Ad("$1", "$3"),
        }
        assert are_equivalent(rebuilt, queries["Q3"])


class TestSection35OperatorExamples:
    def test_sigma_3_of_q1_is_q3(self, queries):
        assert are_equivalent(subtree_promotion(queries["Q1"], "$3"), queries["Q3"])

    def test_kappa_4_of_q1_is_q2(self, queries):
        q1 = queries["Q1"]
        assert are_equivalent(contains_promotion(q1, q1.contains[0]), queries["Q2"])

    def test_lambda_3_of_q2_is_q5(self, queries):
        assert are_equivalent(leaf_deletion(queries["Q2"], "$3"), queries["Q5"])


class TestFigure1OnArticles:
    """§1's walk-through: each relaxation catches one more archetype."""

    def _ids(self, corpus, engine, name, queries):
        oracle = lambda node, expr: engine.context.ir.satisfies(node, expr)
        return {
            node.attributes["id"].rsplit("-", 1)[0]
            for node in evaluate(queries[name], corpus, contains_oracle=oracle)
        }

    def test_q1_catches_only_exact(self, corpus, engine, queries):
        assert self._ids(corpus, engine, "Q1", queries) == {"exact"}

    def test_q2_adds_title_keywords(self, corpus, engine, queries):
        assert self._ids(corpus, engine, "Q2", queries) == {
            "exact",
            "title-keywords",
        }

    def test_q3_adds_split_algorithm(self, corpus, engine, queries):
        assert self._ids(corpus, engine, "Q3", queries) == {
            "exact",
            "split-algorithm",
        }

    def test_q4_unions_q2_q3(self, corpus, engine, queries):
        assert self._ids(corpus, engine, "Q4", queries) == {
            "exact",
            "title-keywords",
            "split-algorithm",
        }

    def test_q6_catches_everything_relevant(self, corpus, engine, queries):
        ids = self._ids(corpus, engine, "Q6", queries)
        assert "abstract-only" in ids
        assert "off-topic" not in ids


class TestExample1Penalties:
    """Example 1: the structural score of Q1 answers is 3; relaxing to Q5
    subtracts the four penalty terms."""

    def test_base_score_three(self, engine, queries):
        schedule = engine.relaxations(queries["Q1"])
        assert schedule.base_score == 3.0

    def test_relaxed_scores_subtract_penalties(self, engine, queries):
        schedule = engine.relaxations(queries["Q1"])
        for index in range(1, len(schedule) + 1):
            assert schedule.structural_score(index) < schedule.base_score

    def test_flexpath_ranks_exact_above_relaxed(self, engine, queries):
        result = engine.query(queries["Q1"], k=15, algorithm="hybrid")
        levels = [a.relaxation_level for a in result.answers]
        exact_positions = [i for i, lvl in enumerate(levels) if lvl == 0]
        relaxed_positions = [i for i, lvl in enumerate(levels) if lvl > 0]
        if exact_positions and relaxed_positions:
            assert max(exact_positions) < min(relaxed_positions)


class TestStrictVsFlexible:
    def test_strict_interpretation_penalizes_user(self, engine, queries):
        """The paper's central motivation: strict Q1 misses articles that
        flexible evaluation recovers."""
        strict = engine.exact(queries["Q1"])
        flexible = engine.query(queries["Q1"], k=20)
        assert len(flexible.answers) > len(strict)

    def test_flexible_includes_all_strict(self, engine, queries):
        strict_ids = {n.node_id for n in engine.exact(queries["Q1"])}
        flexible_ids = {a.node_id for a in engine.query(queries["Q1"], k=25).answers}
        assert strict_ids <= flexible_ids
