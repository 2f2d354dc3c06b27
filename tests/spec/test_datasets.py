"""The article-corpus generator of tests.spec.datasets, and the example
file written from it."""

from pathlib import Path

import pytest

from repro.xmltree.serialize import to_xml
from tests.spec.datasets import ARCHETYPES, FIGURE1_QUERIES, article_corpus

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"


class TestCorpusShape:
    def test_article_count(self):
        doc = article_corpus(articles=10, seed=1)
        assert doc.count("article") == 10

    def test_archetypes_cycle(self):
        doc = article_corpus(articles=10, seed=1)
        kinds = [
            node.attributes["id"].rsplit("-", 1)[0]
            for node in doc.nodes_with_tag("article")
        ]
        assert kinds == list(ARCHETYPES) * 2

    def test_deterministic(self):
        first = article_corpus(articles=15, seed=2)
        second = article_corpus(articles=15, seed=2)
        assert [n.text for n in first.nodes()] == [n.text for n in second.nodes()]

    def test_custom_keywords(self):
        doc = article_corpus(articles=5, seed=3, keywords=("database", "tuning"))
        text = " ".join(n.text for n in doc.nodes() if n.text)
        assert "database tuning" in text
        assert "XML streaming" not in text


class TestArchetypeSemantics:
    @pytest.fixture(scope="class")
    def doc(self):
        return article_corpus(articles=25, seed=11)

    def _article(self, doc, kind):
        for node in doc.nodes_with_tag("article"):
            if node.attributes["id"].startswith(kind):
                return node
        raise AssertionError("missing archetype %s" % kind)

    def test_exact_has_keywords_in_paragraph(self, doc):
        article = self._article(doc, "exact")
        paragraphs = doc.descendants_with_tag(article, "paragraph")
        assert any("XML streaming" in p.text for p in paragraphs)

    def test_title_keywords_has_clean_paragraphs(self, doc):
        article = self._article(doc, "title-keywords")
        paragraphs = doc.descendants_with_tag(article, "paragraph")
        assert all("XML" not in p.text for p in paragraphs)
        titles = doc.descendants_with_tag(article, "title")
        assert any("XML streaming" in t.text for t in titles)

    def test_split_algorithm_separates_sections(self, doc):
        article = self._article(doc, "split-algorithm")
        for section in doc.descendants_with_tag(article, "section"):
            has_algorithm = bool(doc.descendants_with_tag(section, "algorithm"))
            has_keywords = "XML" in doc.full_text(section)
            assert not (has_algorithm and has_keywords)

    def test_off_topic_never_mentions_keywords(self, doc):
        article = self._article(doc, "off-topic")
        assert "XML" not in doc.full_text(article)

    def test_figure1_queries_parse(self):
        from repro.query import parse_query

        for text in FIGURE1_QUERIES.values():
            parse_query(text)


class TestExampleData:
    """``examples/article_search.py`` reads a committed copy of the corpus,
    which must not drift from the generator."""

    def test_articles_xml_is_the_generator_output(self):
        expected = to_xml(article_corpus(articles=25, seed=11))
        assert (EXAMPLES / "articles.xml").read_bytes() == expected.encode("utf-8")
