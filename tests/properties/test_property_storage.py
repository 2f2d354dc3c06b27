"""Property tests: persistence round trips on random documents."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmltree import dump_document, load_document, parse
from repro.xmltree.serialize import to_xml

from tests.properties.strategies import documents, exotic_documents


def _assert_same_nodes(first, second):
    assert len(first) == len(second)
    for original, copy in zip(first.nodes(), second.nodes()):
        assert original.tag == copy.tag
        assert original.text == copy.text
        assert original.start == copy.start
        assert original.end == copy.end
        assert original.level == copy.level
        assert original.parent_id == copy.parent_id
        assert original.attributes == copy.attributes


@given(documents())
@settings(max_examples=30, deadline=None)
def test_document_dump_round_trips(doc):
    handle, path = tempfile.mkstemp(suffix=".fxd")
    os.close(handle)
    try:
        dump_document(doc, path)
        loaded = load_document(path)
        assert len(loaded) == len(doc)
        for original, copy in zip(doc.nodes(), loaded.nodes()):
            assert original.tag == copy.tag
            assert original.text == copy.text
            assert original.start == copy.start
            assert original.end == copy.end
            assert original.level == copy.level
            assert original.parent_id == copy.parent_id
    finally:
        os.unlink(path)


@given(exotic_documents())
@settings(max_examples=40, deadline=None)
def test_exotic_characters_survive_dumps(doc):
    """Control characters (incl. the \\x1f attribute separator), tabs,
    newlines, backslashes, and unicode round-trip through a dump."""
    handle, path = tempfile.mkstemp(suffix=".fxd")
    os.close(handle)
    try:
        dump_document(doc, path)
        _assert_same_nodes(doc, load_document(path))
    finally:
        os.unlink(path)


@given(exotic_documents())
@settings(max_examples=30, deadline=None)
def test_dump_v2_is_byte_stable(doc):
    """dump → load → dump reproduces the file byte for byte."""
    paths = []
    for _ in range(2):
        handle, path = tempfile.mkstemp(suffix=".fxd")
        os.close(handle)
        paths.append(path)
    try:
        dump_document(doc, paths[0])
        dump_document(load_document(paths[0]), paths[1])
        with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
            assert first.read() == second.read()
    finally:
        for path in paths:
            os.unlink(path)


@given(documents())
@settings(max_examples=30, deadline=None)
def test_serialize_parse_round_trips(doc):
    _assert_same_nodes(doc, parse(to_xml(doc)))


@given(st.lists(documents(), min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_corpus_splice_matches_batch_construction(docs):
    """Adding parsed documents one by one builds the same node table as
    the batch ``from_texts`` path, and each spliced fragment matches its
    source shifted by the splice offset."""
    from repro.collection import Corpus, DocumentCollection

    corpus = Corpus()
    starts = [corpus.add_document(doc).node_id for doc in docs]
    batch = DocumentCollection.from_texts([to_xml(doc) for doc in docs])
    _assert_same_nodes(corpus.document, batch.document)
    for doc, start in zip(docs, starts):
        combined = corpus.document
        for offset, original in enumerate(doc.nodes()):
            copy = combined.node(start + offset)
            assert copy.tag == original.tag
            assert copy.text == original.text
            assert copy.level == original.level + 1
            assert copy.end - start == original.end
            expected_parent = (
                original.parent_id + start if original.parent_id >= 0 else 0
            )
            assert copy.parent_id == expected_parent


@given(documents())
@settings(max_examples=20, deadline=None)
def test_index_dump_round_trips(doc):
    """An index sealed into a postings segment answers like the original."""
    from repro.backend import diskfmt
    from repro.backend.disk import DiskInvertedIndex
    from repro.ir import InvertedIndex

    index = InvertedIndex(doc)
    handle, path = tempfile.mkstemp(suffix=".bin")
    os.close(handle)
    try:
        diskfmt.write_postings(path, index._postings, index.text_element_count)
        mm = diskfmt.map_segment(path, diskfmt.POSTINGS_MAGIC, "postings")
        try:
            directory, text_elements = diskfmt.parse_postings_directory(mm)
            loaded = DiskInvertedIndex(
                doc, mm, directory, text_elements, len(doc), path
            )
            assert loaded.vocabulary_size == index.vocabulary_size
            for node in doc.nodes():
                for term in ("gold", "ring", "stamp"):
                    assert loaded.subtree_term_frequency(
                        term, node
                    ) == index.subtree_term_frequency(term, node)
        finally:
            mm.close()
    finally:
        os.unlink(path)


@st.composite
def documents_with_depths(draw, max_children=2, max_depth=3):
    """A random small document and, per node id, the depth it was opened at."""
    from repro.xmltree.builder import TreeBuilder

    builder = TreeBuilder()
    depths = []

    def emit(depth):
        builder.start(draw(st.sampled_from(("a", "b", "c"))))
        depths.append(depth)
        if depth < max_depth:
            for _ in range(draw(st.integers(0, max_children))):
                emit(depth + 1)
        builder.end()

    emit(0)
    return builder.finish(), depths


def _is_tree(parent_ids, ends, tag_ids, tag_count):
    """Whether the columns are one pre-order region-encoded tree: node 0
    the only root, earlier parents, known tags, and each region exactly
    the node and the nodes whose parent chain reaches it."""
    count = len(parent_ids)
    if parent_ids[0] != -1 or not all(0 <= tag < tag_count for tag in tag_ids):
        return False
    if not all(0 <= parent_ids[node] < node for node in range(1, count)):
        return False
    subtrees = [{node} for node in range(count)]
    for node in range(1, count):
        ancestor = parent_ids[node]
        while ancestor >= 0:
            subtrees[ancestor].add(node)
            ancestor = parent_ids[ancestor]
    return all(
        subtrees[node] == set(range(node, ends[node])) for node in range(count)
    )


@given(documents_with_depths())
@settings(max_examples=25, deadline=None)
def test_levels_are_derived_and_every_broken_cell_is_refused(case):
    """Dump, WAL record and column segment round trips keep the builder's
    nesting depth as the derived ``level``, and a single edited parent,
    end or tag cell is refused exactly when the table stops being a tree."""
    from repro.backend import diskfmt
    from repro.collection import Corpus
    from repro.errors import CorruptStorageError
    from repro.xmltree.document import Document
    from repro.xmltree.storage import decode_fragment, encode_fragment

    doc, depths = case
    handle, path = tempfile.mkstemp(suffix=".fxd")
    os.close(handle)
    try:
        dump_document(doc, path)
        dumped = load_document(path)
        corpus = Corpus()
        corpus.add_document(doc, name="doc")
        diskfmt.write_columns(path, corpus.document.store, corpus.fragments())
        store, fragments, mm = diskfmt.read_columns(path)
        try:
            assert fragments == [(1, len(doc) + 1, "doc")]
            sealed = [store.parent_ids, store.ends]
            segment_levels = [node.level for node in Document(store).nodes()]
        finally:
            mm.close()
    finally:
        os.unlink(path)
    logged = decode_fragment(encode_fragment(doc, "doc"))[0]
    for copy in (doc, dumped, logged):
        assert [node.level for node in copy.nodes()] == depths
    assert segment_levels == [0] + [depth + 1 for depth in depths]
    assert sealed == [corpus.document.store.parent_ids, corpus.document.store.ends]

    store = doc.store
    count, tag_count = len(store), len(store.tags)
    edits = [
        (store.parent_ids, range(-2, count + 1)),
        (store.ends, range(0, count + 2)),
        (store.tag_ids, range(-1, tag_count + 1)),
    ]
    for column, values in edits:
        for node_id in range(count):
            original = column[node_id]
            for value in values:
                if value == original:
                    continue
                column[node_id] = value
                payload = encode_fragment(doc, "doc")
                columns = (store.parent_ids, store.ends, store.tag_ids)
                tree = _is_tree(*columns, tag_count)
                expected = tuple(bytes(edited) for edited in columns)
                column[node_id] = original
                if tree:
                    decoded = decode_fragment(payload)[0].store
                    columns = (decoded.parent_ids, decoded.ends, decoded.tag_ids)
                    assert tuple(bytes(column) for column in columns) == expected
                else:
                    with pytest.raises(CorruptStorageError):
                        decode_fragment(payload)
