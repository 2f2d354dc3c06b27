"""Document navigation, tag index, and text access."""

import pytest

from repro.errors import FleXPathError
from repro.xmltree import build_document, element, parse


@pytest.fixture()
def doc():
    return parse(
        "<lib>"
        "<book><title>First</title><chapter><title>One</title></chapter></book>"
        "<book><title>Second</title></book>"
        "</lib>"
    )


class TestNavigation:
    def test_parent(self, doc):
        chapter = doc.nodes_with_tag("chapter")[0]
        assert doc.parent(chapter).tag == "book"
        assert doc.parent(doc.root) is None

    def test_children(self, doc):
        book = doc.nodes_with_tag("book")[0]
        assert [c.tag for c in doc.children(book)] == ["title", "chapter"]

    def test_ancestors(self, doc):
        inner_title = doc.nodes_with_tag("title")[1]
        assert [a.tag for a in doc.ancestors(inner_title)] == [
            "chapter",
            "book",
            "lib",
        ]

    def test_descendants(self, doc):
        book = doc.nodes_with_tag("book")[0]
        assert [d.tag for d in doc.descendants(book)] == [
            "title",
            "chapter",
            "title",
        ]

    def test_path_to_root(self, doc):
        chapter = doc.nodes_with_tag("chapter")[0]
        assert doc.path_to_root(chapter) == ["chapter", "book", "lib"]

    def test_lowest_common_ancestor(self, doc):
        titles = doc.nodes_with_tag("title")
        lca = doc.lowest_common_ancestor(titles[0], titles[1])
        assert lca.tag == "book"
        lca2 = doc.lowest_common_ancestor(titles[0], titles[2])
        assert lca2.tag == "lib"

    def test_lca_of_nested_pair_is_ancestor(self, doc):
        book = doc.nodes_with_tag("book")[0]
        chapter = doc.nodes_with_tag("chapter")[0]
        assert doc.lowest_common_ancestor(book, chapter) is book


class TestTagIndex:
    def test_counts(self, doc):
        assert doc.count("book") == 2
        assert doc.count("title") == 3
        assert doc.count("missing") == 0

    def test_tag_lists_sorted_by_start(self, doc):
        titles = doc.nodes_with_tag("title")
        assert [t.start for t in titles] == sorted(t.start for t in titles)

    def test_tags_property(self, doc):
        assert doc.tags == {"lib", "book", "title", "chapter"}

    def test_descendants_with_tag(self, doc):
        book = doc.nodes_with_tag("book")[0]
        assert len(doc.descendants_with_tag(book, "title")) == 2
        assert len(doc.descendants_with_tag(book, "book")) == 0

    def test_children_with_tag(self, doc):
        book = doc.nodes_with_tag("book")[0]
        assert len(doc.children_with_tag(book, "title")) == 1


class TestText:
    def test_full_text_concatenates_subtree(self, doc):
        book = doc.nodes_with_tag("book")[0]
        assert doc.full_text(book) == "First One"

    def test_direct_text(self):
        doc = build_document(element("a", element("b", text="inner"), text="outer"))
        assert doc.direct_text(doc.root) == "outer"

    def test_stats_summary(self, doc):
        summary = doc.stats_summary()
        assert summary["nodes"] == len(doc)
        assert summary["depth"] == 3

    def test_empty_document_root_raises(self):
        from repro.xmltree.document import ColumnarStore, Document

        with pytest.raises(FleXPathError):
            Document(ColumnarStore()).root
