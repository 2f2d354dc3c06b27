"""The reference evaluator (exact match semantics of §2.1)."""

import pytest

from repro.query import parse_query
from repro.xmltree import parse
from tests.spec.evaluate import evaluate, find_matches


@pytest.fixture()
def doc():
    return parse(
        "<lib>"
        "<article><section><algorithm>a</algorithm>"
        "<paragraph>xml streaming methods</paragraph></section></article>"
        "<article><section><paragraph>nothing</paragraph></section>"
        "<appendix><algorithm>b</algorithm></appendix></article>"
        "<note><paragraph>xml streaming note</paragraph></note>"
        "</lib>"
    )


class TestStructuralSemantics:
    def test_simple_path(self, doc):
        answers = evaluate(parse_query("//article/section"), doc)
        assert len(answers) == 2
        assert all(a.tag == "section" for a in answers)

    def test_pc_vs_ad(self, doc):
        strict = evaluate(parse_query("//article/algorithm"), doc)
        loose = evaluate(parse_query("//article//algorithm"), doc)
        assert len(strict) == 0
        assert len(loose) == 2

    def test_branch_conjunction(self, doc):
        query = parse_query("//article[./section[./algorithm and ./paragraph]]")
        assert len(evaluate(query, doc)) == 1

    def test_answers_in_document_order(self, doc):
        answers = evaluate(parse_query("//paragraph"), doc)
        ids = [a.node_id for a in answers]
        assert ids == sorted(ids)

    def test_answers_deduplicated(self, doc):
        # Two paragraphs under one article must yield the article once.
        xml_doc = parse(
            "<r><article><paragraph>x</paragraph><paragraph>y</paragraph>"
            "</article></r>"
        )
        answers = evaluate(parse_query("//article[./paragraph]"), xml_doc)
        assert len(answers) == 1

    def test_no_matches(self, doc):
        assert evaluate(parse_query("//missing"), doc) == []

    def test_wildcard_variable(self, doc):
        answers = evaluate(parse_query("//article/*[./algorithm]"), doc)
        assert {a.tag for a in answers} == {"section", "appendix"}


class TestContainsSemantics:
    def test_contains_filters(self, doc):
        query = parse_query('//article[.contains("xml" and "streaming")]')
        assert len(evaluate(query, doc)) == 1

    def test_contains_scope_is_subtree(self, doc):
        query = parse_query('//section[.contains("streaming")]')
        assert len(evaluate(query, doc)) == 1

    def test_contains_with_structure(self, doc):
        query = parse_query(
            '//article[./section[./paragraph[.contains("xml")]]]'
        )
        answers = evaluate(query, doc)
        assert len(answers) == 1

    def test_custom_oracle(self, doc):
        query = parse_query('//article[.contains("anything")]')
        always = evaluate(query, doc, contains_oracle=lambda n, e: True)
        never = evaluate(query, doc, contains_oracle=lambda n, e: False)
        assert len(always) == 2
        assert len(never) == 0


class TestAttributeSemantics:
    def test_attribute_filter(self):
        doc = parse('<r><b price="50"/><b price="150"/></r>')
        answers = evaluate(parse_query("//b[@price < 100]"), doc)
        assert len(answers) == 1

    def test_missing_attribute_fails(self):
        doc = parse("<r><b/></r>")
        assert evaluate(parse_query("//b[@price < 100]"), doc) == []


class TestFindMatches:
    def test_full_bindings(self, doc):
        query = parse_query("//article/section/paragraph")
        matches = list(find_matches(query, doc))
        assert len(matches) == 2
        for match in matches:
            assert match["$1"].tag == "article"
            assert match["$3"].tag == "paragraph"

    def test_match_preserves_edges(self, doc):
        query = parse_query("//article//algorithm")
        for match in find_matches(query, doc):
            assert match["$1"].is_ancestor_of(match["$2"])
