"""Conformance suite for :class:`repro.backend.StorageBackend`.

One shared test class, parametrized over a factory per registered backend
implementation.  Every backend — in-memory today, anything pluggable
tomorrow — must serve the same answers: ids and columns agreeing with the
raw :class:`~repro.xmltree.document.Document`'s navigation, columns
byte-identical to the
columnar store, join-kernel output identical to the reference kernels,
postings and statistics identical to freshly built index/collector
instances, and engine-level query results identical across backends.

To register a new implementation, add a ``(name, factory)`` pair to
``BACKEND_FACTORIES`` — the factory takes the library XML text and a
scratch directory and returns a backend; everything below runs against it
unchanged (see docs/EXTENDING.md).
"""

import tempfile

import pytest

from repro.backend import InMemoryBackend, StorageBackend, as_backend
from repro.backend.disk import DiskBackend
from repro.backend.kernels import semi_join_ancestor_ids, structural_join_ids
from repro.backend.stats import DocumentStatistics
from repro.collection import Corpus
from repro.engine import Engine
from repro.ir.engine import IREngine
from repro.xmltree import parse
from tests.conftest import LIBRARY_XML

EXTRA_XML = (
    "<article><section><paragraph>more streaming XML text"
    "</paragraph></section></article>"
)


def _memory_document(xml_text, tmp_path):
    return InMemoryBackend(parse(xml_text))


def _memory_corpus(xml_text, tmp_path):
    corpus = Corpus()
    corpus.add_text(xml_text)
    return InMemoryBackend(corpus)


def _disk_wal(xml_text, tmp_path):
    """Disk corpus whose whole content still lives in the WAL tail."""
    backend = DiskBackend.create(tempfile.mkdtemp(dir=tmp_path))
    backend.add_document(parse(xml_text))
    return backend


def _disk_sealed(xml_text, tmp_path):
    """Disk corpus reopened cold from a compacted (sealed) segment."""
    path = tempfile.mkdtemp(dir=tmp_path)
    backend = DiskBackend.create(path)
    backend.add_document(parse(xml_text))
    backend.compact()
    backend.close()
    return DiskBackend.open(path)


BACKEND_FACTORIES = [
    ("memory-document", _memory_document),
    ("memory-corpus", _memory_corpus),
    ("disk-wal", _disk_wal),
    ("disk-sealed", _disk_sealed),
]


@pytest.fixture(
    params=[factory for _name, factory in BACKEND_FACTORIES],
    ids=[name for name, _factory in BACKEND_FACTORIES],
)
def backend(request, tmp_path):
    return request.param(LIBRARY_XML, tmp_path)


class TestProtocol:
    def test_is_a_storage_backend(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_as_backend_passthrough(self, backend):
        assert as_backend(backend) is backend

    def test_describe_is_json_safe(self, backend):
        import json

        info = backend.describe()
        json.dumps(info)
        assert info["nodes"] == len(backend.document)
        assert info["corpus_backed"] == (backend.corpus is not None)

    def test_repr(self, backend):
        assert type(backend).__name__ in repr(backend)


class TestNavigation:
    """The backend's ids and columns agree with the document's navigation."""

    def test_node_round_trip(self, backend):
        document = backend.document
        for node in list(document.nodes())[:50]:
            assert backend.node(node.node_id).node_id == node.node_id

    def test_nodes_matches_document(self, backend):
        assert [n.node_id for n in backend.document.nodes()] == list(
            range(len(backend))
        )

    def test_nodes_with_tag_matches_document(self, backend):
        document = backend.document
        for tag in document.tags:
            assert list(backend.node_ids_with_tag(tag)) == [
                n.node_id for n in document.nodes_with_tag(tag)
            ]
            assert len(backend.node_ids_with_tag(tag)) == document.count(tag)

    def test_node_ids_with_tag_matches_views(self, backend):
        for tag in backend.document.tags:
            assert list(backend.node_ids_with_tag(tag)) == [
                node_id for node_id in range(len(backend))
                if backend.node(node_id).tag == tag
            ]

    def test_axes_match_document(self, backend):
        document = backend.document
        ends, parent_ids = backend.ends, backend.parent_ids
        for node in list(document.nodes())[:30]:
            node_id = node.node_id
            assert [c.node_id for c in document.children(node)] == [
                child for child in range(node_id + 1, ends[node_id])
                if parent_ids[child] == node_id
            ]
            assert [d.node_id for d in document.descendants(node)] == list(
                range(node_id + 1, ends[node_id])
            )
            parent = document.parent(node)
            assert (parent.node_id if parent else -1) == parent_ids[node_id]

    def test_tagged_axes_match_document(self, backend):
        document = backend.document
        root = document.node(0)
        for tag in document.tags:
            inside = [
                node_id for node_id in backend.node_ids_with_tag(tag)
                if 0 < node_id < backend.ends[0]
            ]
            assert [
                n.node_id for n in document.descendants_with_tag(root, tag)
            ] == inside
            assert list(document.descendant_ids_with_tag(root, tag)) == inside


def _shard_view(xml_text, tmp_path):
    """What a sharded engine's executors run against: one shard's child
    backend (its view of the corpus), routed beside a second shard."""
    from repro.backend.sharded import RoundRobinRouter, ShardedBackend

    sharded = ShardedBackend.in_memory(2, router=RoundRobinRouter())
    sharded.add_document(parse(xml_text), name="library")
    sharded.add_document(parse(EXTRA_XML), name="extra")
    return sharded.shards[0]


@pytest.fixture(
    params=[factory for _name, factory in BACKEND_FACTORIES] + [_shard_view],
    ids=[name for name, _factory in BACKEND_FACTORIES] + ["shard-view"],
)
def id_backend(request, tmp_path):
    return request.param(LIBRARY_XML, tmp_path)


class _NoViews:
    """Stand-in document that fails the test if a node view is asked for."""

    def __init__(self, document):
        self.store = document.store

    def __len__(self):
        return len(self.store)

    def __getattr__(self, name):
        raise AssertionError("the id seam touched document.%s" % name)


class TestIdSeam:
    """Ids in, ids out: what the executor calls between seed and answer."""

    def _without_views(self, backend, monkeypatch):
        monkeypatch.setattr(backend, "_document", _NoViews(backend.document))

    def test_node_ids_with_tag_makes_no_views(self, id_backend, monkeypatch):
        document = id_backend.document
        expected = {
            tag: [n.node_id for n in document.nodes_with_tag(tag)]
            for tag in document.tags
        }
        self._without_views(id_backend, monkeypatch)
        for tag, ids in expected.items():
            assert list(id_backend.node_ids_with_tag(tag)) == ids
        assert len(id_backend.node_ids_with_tag("no-such-tag")) == 0

    def test_tagged_axes_take_ids_and_return_ids(self, id_backend, monkeypatch):
        """A base's tagged children and descendants are one id join away:
        the join kernels over ``node_ids_with_tag`` never need a view."""
        document = id_backend.document
        tags = sorted(document.tags)
        bases = [node.node_id for node in list(document.nodes())[:40]]
        expected = {
            (base, tag): (
                [n.node_id for n in document.descendants_with_tag(
                    document.node(base), tag)],
                [n.node_id for n in document.children_with_tag(
                    document.node(base), tag)],
            )
            for base in bases
            for tag in tags
        }
        self._without_views(id_backend, monkeypatch)
        for (base, tag), (descendants, children) in expected.items():
            pool = id_backend.node_ids_with_tag(tag)
            for axis, wanted in (("ad", descendants), ("pc", children)):
                assert [
                    candidate for _base, candidate
                    in id_backend.structural_join_ids([base], pool, axis=axis)
                ] == wanted

    def test_document_id_axes_share_the_empty_sequence(self, id_backend):
        document = id_backend.document
        root = document.node(0)
        assert document.child_ids_with_tag(root, "no-such-tag") is (
            document.descendant_ids_with_tag(root, "no-such-tag")
        )

    @pytest.mark.parametrize("axis", ["ad", "pc"])
    def test_join_by_ids_matches_per_base_navigation(self, id_backend, axis):
        """The merge the executor fills a join table with, grouped by base,
        is the per-base navigation it replaced."""
        bases = list(id_backend.node_ids_with_tag("article"))
        pool = id_backend.node_ids_with_tag("paragraph")
        grouped = {base: [] for base in bases}
        for base, candidate in id_backend.structural_join_ids(
                bases, pool, axis=axis):
            grouped[base].append(candidate)
        document = id_backend.document
        navigate = (document.descendant_ids_with_tag if axis == "ad"
                    else document.child_ids_with_tag)
        assert grouped == {
            base: list(navigate(document.node(base), "paragraph"))
            for base in bases
        }

    def test_node_resolves_an_id_to_its_view(self, id_backend):
        for node_id in list(id_backend.node_ids_with_tag("section"))[:5]:
            node = id_backend.node(node_id)
            assert (node.node_id, node.tag) == (node_id, "section")


class TestColumns:
    def test_columns_byte_identical_to_store(self, backend):
        store = backend.document.store
        assert bytes(backend.ends) == bytes(store.ends)
        assert bytes(backend.levels) == bytes(store.levels)
        assert bytes(backend.parent_ids) == bytes(store.parent_ids)
        assert bytes(backend.tag_ids) == bytes(store.tag_ids)

    def test_len_is_element_count(self, backend):
        assert len(backend) == len(backend.document)


class TestKernels:
    def _id_pools(self, backend):
        articles = list(backend.node_ids_with_tag("article"))
        paragraphs = list(backend.node_ids_with_tag("paragraph"))
        return articles, paragraphs

    @pytest.mark.parametrize("axis", ["ad", "pc"])
    def test_structural_join_matches_reference(self, backend, axis):
        articles, sections = (
            list(backend.node_ids_with_tag("article")),
            list(backend.node_ids_with_tag("section")),
        )
        expected = structural_join_ids(
            backend.document.store.ends,
            backend.document.store.levels,
            articles,
            sections,
            axis=axis,
        )
        assert backend.structural_join_ids(articles, sections, axis=axis) == expected

    def test_semi_joins_match_reference(self, backend):
        store = backend.document.store
        articles, paragraphs = self._id_pools(backend)
        for axis in ("ad", "pc"):
            assert backend.semi_join_ancestor_ids(
                articles, paragraphs, axis=axis
            ) == semi_join_ancestor_ids(
                store.ends, store.levels, articles, paragraphs, axis=axis
            )


class TestFullText:
    def test_postings_match_fresh_index(self, backend):
        fresh = IREngine(
            backend.document, virtual_root_id=backend.virtual_root_id
        )
        for term in ("stream", "xml", "algorithm", "databas"):
            ours = backend.ir.index.posting(term)
            reference = fresh.index.posting(term)
            if reference is None:
                assert ours is None
                continue
            assert ours.node_ids == reference.node_ids
            assert ours.position_lists == reference.position_lists
            assert ours.count_prefix == reference.count_prefix

    def test_absent_term_has_no_posting(self, backend):
        assert backend.ir.index.posting("zzz-not-a-term") is None


def _named_counts(statistics, tags):
    """``#(t)``, ``#pc`` and ``#ad`` for every pair of the named tags."""
    return {
        (upper, lower): (
            statistics.tag_count(upper),
            statistics.pc_count(upper, lower),
            statistics.ad_count(upper, lower),
        )
        for upper in tags for lower in tags
    }


class TestStatistics:
    def test_counts_match_fresh_collector(self, backend):
        fresh = DocumentStatistics(
            backend.document, virtual_root_id=backend.virtual_root_id
        )
        assert backend.total_elements == fresh.total_elements
        for tag in backend.document.tags:
            assert backend.tag_count(tag) == fresh.tag_count(tag)
        for parent, child in (
            ("article", "section"),
            ("section", "paragraph"),
            ("library", "article"),
        ):
            assert backend.pc_count(parent, child) == fresh.pc_count(parent, child)
            assert backend.ad_count(parent, child) == fresh.ad_count(parent, child)
            assert backend.pc_parent_count(parent, child) == fresh.pc_parent_count(
                parent, child
            )
            assert backend.ad_ancestor_count(
                parent, child
            ) == fresh.ad_ancestor_count(parent, child)
            assert backend.pc_child_fraction(
                parent, child
            ) == fresh.pc_child_fraction(parent, child)
            assert backend.ad_descendant_fraction(
                parent, child
            ) == fresh.ad_descendant_fraction(parent, child)

    def test_strict_evaluation_skips_the_full_pass(self, backend):
        """``exact`` lowers its plan from ``#(t)`` and pair counts of named
        tags, served without the full statistics pass — and equal to it."""
        Engine(backend, cache=False).exact(
            '//article[./section/paragraph and .//algorithm]'
        )
        tags = sorted(backend.document.tags)
        counts = _named_counts(backend, tags)
        assert not backend.describe()["statistics_materialized"]
        fresh = DocumentStatistics(
            backend.document, virtual_root_id=backend.virtual_root_id
        )
        assert counts == _named_counts(fresh, tags)

    def test_virtual_root_tag_is_not_counted(self):
        """A corpus element may share its virtual root's tag; only the
        virtual root itself is left out of the counts."""
        corpus = Corpus()
        corpus.add_text(
            "<collection><a><collection><b/></collection></a></collection>"
        )
        fresh = DocumentStatistics(corpus.document, virtual_root_id=0)
        tags = ("collection", "a", "b")
        assert _named_counts(InMemoryBackend(corpus), tags) == _named_counts(
            fresh, tags
        )
        assert fresh.tag_count("collection") == 2


class TestIngest:
    def test_growable_backends_ingest_and_bump_version(self, backend):
        if backend.corpus is None:
            with pytest.raises(TypeError):
                backend.add_document(parse(EXTRA_XML))
            return
        before_version = backend.version
        before_len = len(backend)
        seen = []
        backend.subscribe(lambda b, start, end: seen.append((start, end)))
        backend.add_document(parse(EXTRA_XML))
        assert backend.version == before_version + 1
        assert len(backend) > before_len
        assert seen and seen[0][1] == len(backend)

    def test_growth_extends_materialized_members(self, backend):
        if backend.corpus is None:
            pytest.skip("document-backed backends never grow")
        backend.ir  # materialize both lazy members before the append
        backend.statistics
        before = backend.tag_count("paragraph")
        backend.add_document(parse(EXTRA_XML))
        assert backend.tag_count("paragraph") == before + 1
        assert backend.ir.index.posting("stream").subtree_has(0, len(backend))


class TestEngineParity:
    QUERIES = [
        "//article",
        '//article[./section[./paragraph and .contains("XML" and "streaming")]]',
        '//section[.contains("streaming")]',
    ]

    def _answers(self, backend, query):
        engine = Engine(backend, cache=False)
        result = engine.query(query, k=5)
        return [
            (a.node.tag, a.score.structural, a.score.keyword, a.relaxation_level)
            for a in result.answers
        ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_results_identical_across_backends(self, query, tmp_path):
        reference = None
        for name, factory in BACKEND_FACTORIES:
            answers = self._answers(factory(LIBRARY_XML, tmp_path), query)
            if reference is None:
                reference = answers
            else:
                assert answers == reference, name
