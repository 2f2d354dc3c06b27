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
