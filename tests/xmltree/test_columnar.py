"""The columnar store: tag interning, column splicing, node views."""

import pytest

from repro.collection import Corpus
from repro.errors import FleXPathError
from repro.xmltree import parse
from repro.xmltree.document import ColumnarStore, Document, TagDictionary


class TestTagDictionary:
    def test_intern_is_idempotent(self):
        tags = TagDictionary()
        assert tags.intern("a") == 0
        assert tags.intern("b") == 1
        assert tags.intern("a") == 0
        assert len(tags) == 2

    def test_round_trip(self):
        tags = TagDictionary()
        for name in ("alpha", "beta", "gamma"):
            tags.intern(name)
        for name in ("alpha", "beta", "gamma"):
            assert tags.name_of(tags.id_of(name)) == name

    def test_unknown_tag_id(self):
        tags = TagDictionary()
        assert tags.id_of("missing") == -1
        assert "missing" not in tags

    def test_names_in_id_order(self):
        tags = TagDictionary()
        tags.intern("z")
        tags.intern("a")
        assert tags.names() == ["z", "a"]
        assert list(tags) == ["z", "a"]

    def test_seeded_construction(self):
        tags = TagDictionary(["x", "y"])
        assert tags.id_of("y") == 1
        assert tags.intern("x") == 0


class TestColumnarStore:
    def test_append_assigns_preorder_ids(self):
        store = ColumnarStore()
        root = store.append("root", -1)
        child = store.append("child", root)
        assert (root, child) == (0, 1)
        assert store.parent_ids[child] == root

    def test_close_records_region_end(self):
        store = ColumnarStore()
        root = store.append("root", -1)
        store.append("child", root)
        store.close(1, 2)
        store.close(root, 2)
        assert list(store.ends) == [2, 2]

    def test_tag_index_is_id_sorted(self):
        store = ColumnarStore()
        store.append("a", -1)
        store.append("b", 0)
        store.append("a", 0)
        assert list(store.node_ids_with_tag("a")) == [0, 2]
        assert list(store.node_ids_with_tag("missing")) == []

    def test_attributes_are_copied(self):
        store = ColumnarStore()
        attrs = {"k": "v"}
        store.append("a", -1, attrs)
        attrs["k"] = "mutated"
        assert store.attribute_table[0] == {"k": "v"}

    def test_footprint_counts_structural_columns(self):
        small = parse("<a/>")
        large = parse("<a>" + "<b/>" * 100 + "</a>")
        assert large.store.footprint_bytes() > small.store.footprint_bytes()


class TestExtendFrom:
    def test_splice_shifts_all_columns(self):
        host = parse('<collection/>').store
        fragment = parse('<article x="1"><title>t</title></article>').store
        base = host.extend_from(fragment)
        assert base == 1
        assert list(host.parent_ids) == [-1, 0, 1]
        assert [Document(host).node(i).level for i in range(3)] == [0, 1, 2]
        assert list(host.ends) == [3, 3, 3]
        assert host.attribute_table[1] == {"x": "1"}
        assert host.texts[2] == "t"

    def test_splice_remaps_tag_ids(self):
        host = parse("<collection><b/></collection>").store
        fragment = parse("<a><b/></a>").store
        host.extend_from(fragment)
        assert host.tag_of(2) == "a"
        assert host.tag_of(3) == "b"
        assert list(host.node_ids_with_tag("b")) == [1, 3]

    def test_splice_grows_ancestor_regions(self):
        host = parse("<collection><old/></collection>").store
        host.extend_from(parse("<new/>").store)
        assert host.ends[0] == 3
        assert host.ends[1] == 2  # sibling untouched

    def test_self_splice_rejected(self):
        store = parse("<a/>").store
        with pytest.raises(FleXPathError):
            store.extend_from(store)

    def test_repeated_splices_stay_sorted(self):
        host = parse("<collection/>").store
        for _ in range(3):
            host.extend_from(parse("<doc><leaf/></doc>").store)
        ids = list(host.node_ids_with_tag("doc"))
        assert ids == sorted(ids) == [1, 3, 5]


class TestNodeViews:
    def test_views_of_one_row_are_equal(self):
        doc = parse("<a><b/><b/></a>")
        assert doc.node(1) == doc.node(1)
        assert hash(doc.node(1)) == hash(doc.node(1))
        assert doc.nodes_with_tag("b")[0] == doc.node(1)
        assert doc.node(1) != doc.node(2)
        assert parse("<a><b/><b/></a>").node(1) != doc.node(1)
        assert len({doc.node(1), doc.node(1), doc.node(2)}) == 2

    def test_view_exposes_columns(self):
        doc = parse('<a k="v"><b>hello</b></a>')
        b = doc.node(1)
        assert (b.tag, b.start, b.end, b.level, b.parent_id) == ("b", 1, 2, 1, 0)
        assert b.text == "hello"
        assert doc.node(0).attributes == {"k": "v"}

    def test_attributes_default_empty(self):
        doc = parse("<a><b/></a>")
        assert doc.node(1).attributes == {}

    def test_empty_construction(self):
        doc = Document(ColumnarStore())
        assert len(doc) == 0


class TestAppendFragment:
    def test_materialized_root_view_grows(self):
        host = parse("<collection/>")
        root = host.root  # materialize before the append
        assert root.end == 1
        host.append_fragment(parse("<doc/>"))
        assert root.end == 2
        assert root == host.root

    def test_root_view_reads_the_end_an_ingest_grew(self):
        corpus = Corpus()
        corpus.add_text("<doc><a/></doc>")
        root = corpus.document.root
        assert root.end == 3
        corpus.add_text("<doc/>")
        assert root.end == 4
        assert [child.start for child in corpus.document.children(root)] == [1, 3]

    def test_tag_lists_see_appended_nodes(self):
        host = parse("<collection><doc/></collection>")
        assert len(host.nodes_with_tag("doc")) == 1
        host.append_fragment(parse("<doc/>"))
        assert [n.node_id for n in host.nodes_with_tag("doc")] == [1, 2]

    def test_self_append_rejected(self):
        doc = parse("<a/>")
        with pytest.raises(FleXPathError):
            doc.append_fragment(doc)

    def test_navigation_spans_fragments(self):
        host = parse("<collection/>")
        host.append_fragment(parse("<a><b>one</b></a>"))
        host.append_fragment(parse("<a><b>two</b></a>"))
        assert [n.tag for n in host.children(host.root)] == ["a", "a"]
        assert host.full_text(host.root) == "one two"
        b_nodes = host.nodes_with_tag("b")
        lca = host.lowest_common_ancestor(b_nodes[0], b_nodes[1])
        assert lca == host.root
