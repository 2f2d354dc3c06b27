"""Corpus statistics collection."""

import pytest

from repro.backend.stats import DocumentStatistics
from repro.xmltree import parse


@pytest.fixture(scope="module")
def doc():
    return parse(
        "<r>"
        "<a><b/><b/></a>"
        "<a><c><b/></c></a>"
        "<a/>"
        "</r>"
    )


@pytest.fixture(scope="module")
def stats(doc):
    return DocumentStatistics(doc)


class TestTagCounts:
    def test_counts(self, stats):
        assert stats.tag_count("a") == 3
        assert stats.tag_count("b") == 3
        assert stats.tag_count("c") == 1
        assert stats.tag_count("missing") == 0

    def test_none_counts_all(self, stats, doc):
        assert stats.tag_count(None) == len(doc)

    def test_total_elements(self, stats, doc):
        assert stats.total_elements == len(doc)


class TestPairCounts:
    def test_pc_pairs(self, stats):
        assert stats.pc_count("a", "b") == 2
        assert stats.pc_count("c", "b") == 1
        assert stats.pc_count("a", "c") == 1
        assert stats.pc_count("b", "a") == 0

    def test_ad_pairs(self, stats):
        assert stats.ad_count("a", "b") == 3  # two direct + one via c
        assert stats.ad_count("r", "b") == 3

    def test_ad_at_least_pc(self, stats):
        for pair in [("a", "b"), ("a", "c"), ("c", "b")]:
            assert stats.ad_count(*pair) >= stats.pc_count(*pair)

    def test_distinct_parent_counts(self, stats):
        assert stats.pc_parent_count("a", "b") == 1  # only the first a
        assert stats.ad_ancestor_count("a", "b") == 2


class TestFractions:
    def test_pc_child_fraction(self, stats):
        assert stats.pc_child_fraction("a", "b") == pytest.approx(1 / 3)

    def test_ad_descendant_fraction(self, stats):
        assert stats.ad_descendant_fraction("a", "b") == pytest.approx(2 / 3)

    def test_zero_population(self, stats):
        assert stats.pc_child_fraction("missing", "b") == 0.0
        assert stats.ad_descendant_fraction("missing", "b") == 0.0


class TestColumnsOnly:
    def test_counting_builds_no_node_view(self, monkeypatch):
        """The counts come off the columns: no ``XMLNode`` is built, for a
        document or for a corpus growing one document at a time."""
        from repro.backend.memory import InMemoryBackend
        from repro.collection import Corpus
        from repro.xmltree.node import XMLNode

        doc = parse("<r><a><b/><b/></a><a><c><b/></c></a><a/></r>")
        corpus = Corpus()

        def refuse(*args):
            raise AssertionError("statistics built a node view")

        monkeypatch.setattr(XMLNode, "__init__", refuse)
        stats = DocumentStatistics(doc)
        assert stats.ad_ancestor_count("a", "b") == 2
        backend = InMemoryBackend(corpus)
        backend.statistics
        corpus.document.append_fragment(doc)  # the splice half of add_document
        backend.statistics.extend(1)
        assert backend.pc_parent_count("a", None) == 2
        assert backend.ad_count(None, "b") == 7

    def test_no_node_id_set_outlives_extend(self):
        stats = DocumentStatistics(parse("<r><a><b/></a><a><b/><c/></a></r>"))

        def sets(value):
            if isinstance(value, (set, frozenset)):
                yield value
            elif isinstance(value, dict):
                for item in value.values():
                    yield from sets(item)

        assert not list(sets(vars(stats)))
        assert all(isinstance(v, int) for v in stats.state()["ad"].values())
