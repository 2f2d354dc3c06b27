"""Assorted coverage: small helpers that deserve explicit pinning."""

from repro.ir import IREngine, parse_ftexpr
from repro.xmltree import parse


class TestIREngineHelpers:
    def test_matches_text_helper(self):
        engine = IREngine(parse("<a>irrelevant</a>"))
        expr = parse_ftexpr('"gold" and "ring"')
        assert engine.matches_text(expr, "a gold ring")
        assert not engine.matches_text(expr, "a silver ring")

    def test_index_property_exposed(self):
        doc = parse("<a>words here</a>")
        engine = IREngine(doc)
        assert engine.index.document is doc


class TestRankStability:
    def test_rank_answers_is_deterministic_under_ties(self):
        from repro.rank import AnswerScore, STRUCTURE_FIRST, ScoredAnswer, rank_answers

        class FakeNode:
            def __init__(self, node_id):
                self.node_id = node_id

        answers = [
            ScoredAnswer(node=FakeNode(i), score=AnswerScore(1.0, 0.5))
            for i in (5, 1, 3, 2, 4)
        ]
        first = [a.node_id for a in rank_answers(answers, STRUCTURE_FIRST)]
        second = [a.node_id for a in rank_answers(list(reversed(answers)),
                                                  STRUCTURE_FIRST)]
        assert first == second == [1, 2, 3, 4, 5]


class TestExplainVariants:
    def test_explain_with_scheme_string(self, library_engine):
        text = library_engine.explain(
            "//article[./section/paragraph]", k=3, scheme="keyword-first"
        )
        assert "keyword-first" in text

    def test_explain_counts_available_relaxations(self, library_engine):
        text = library_engine.explain("//article[./section/paragraph]", k=3)
        schedule = library_engine.relaxations("//article[./section/paragraph]")
        assert ("available relaxations: %d" % len(schedule)) in text


class TestDatasetQ4:
    def test_q4_combines_q2_and_q3(self, article_doc, article_engine):
        from tests.spec.datasets import FIGURE1_QUERIES
        from repro.query import parse_query
        from tests.spec.evaluate import evaluate

        oracle = lambda node, expr: article_engine.context.ir.satisfies(
            node, expr
        )
        ids = {
            name: {
                n.node_id
                for n in evaluate(
                    parse_query(FIGURE1_QUERIES[name]),
                    article_doc,
                    contains_oracle=oracle,
                )
            }
            for name in ("Q2", "Q3", "Q4")
        }
        assert ids["Q4"] == ids["Q2"] | ids["Q3"]


class TestDocumentEdgeCases:
    def test_children_of_leaf(self):
        doc = parse("<a><b/></a>")
        assert doc.children(doc.node(1)) == []

    def test_descendants_with_tag_outside_region(self):
        doc = parse("<a><b><c/></b><d><c/></d></a>")
        b = doc.nodes_with_tag("b")[0]
        cs = doc.descendants_with_tag(b, "c")
        assert len(cs) == 1
        assert b.is_ancestor_of(cs[0])

    def test_subtree_nodes_includes_self(self):
        doc = parse("<a><b/></a>")
        assert [n.tag for n in doc.subtree_nodes(doc.root)] == ["a", "b"]
