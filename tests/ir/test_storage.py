"""Inverted-index persistence: the sealed postings segment."""

import struct
import zlib

import pytest

from repro.backend import diskfmt
from repro.backend.disk import DiskInvertedIndex
from repro.errors import CorruptStorageError
from repro.ir import IREngine, InvertedIndex, Posting, parse_ftexpr
from repro.xmark import generate_document


@pytest.fixture(scope="module")
def doc():
    return generate_document(target_bytes=20_000, seed=6)


@pytest.fixture(scope="module")
def index(doc):
    return InvertedIndex(doc)


def _open_postings(path):
    """Map a postings segment and parse its directory, as a reopen does."""
    mm = diskfmt.map_segment(path, diskfmt.POSTINGS_MAGIC, "postings")
    try:
        return (mm,) + diskfmt.parse_postings_directory(mm, path)
    except CorruptStorageError:
        mm.close()
        raise


@pytest.fixture()
def reload(tmp_path):
    """Seal ``{term: Posting}`` for a document, then reopen it lazily."""
    maps = []

    def seal_and_open(doc, postings, text_elements=1):
        path = str(tmp_path / "postings.bin")
        diskfmt.write_postings(path, postings, text_elements)
        mm, directory, text_elements = _open_postings(path)
        maps.append(mm)
        return DiskInvertedIndex(
            doc, mm, directory, text_elements, sealed_upto=len(doc), name=path
        )

    yield seal_and_open
    for mm in maps:
        mm.close()


def _reseal(path, edit):
    """Apply ``edit`` to a sealed file's payload and recompute its CRC."""
    with open(path, "rb") as handle:
        payload = bytearray(handle.read()[:-4])
    edit(payload)
    with open(path, "wb") as handle:
        handle.write(payload + struct.pack("<I", zlib.crc32(payload)))


class TestRoundTrip:
    def test_postings_identical(self, doc, index, reload):
        loaded = reload(doc, index._postings, index.text_element_count)
        assert loaded.vocabulary_size == index.vocabulary_size
        assert loaded.text_element_count == index.text_element_count
        for term in ("vintag", "time", "peopl"):
            original = index.posting(term)
            copy = loaded.posting(term)
            if original is None:
                assert copy is None
                continue
            assert copy.node_ids == original.node_ids
            assert copy.position_lists == original.position_lists
            assert copy.count_prefix == original.count_prefix

    def test_engine_answers_agree(self, doc, index, reload):
        loaded = reload(doc, index._postings, index.text_element_count)
        fresh = IREngine(doc, index=index)
        reloaded = IREngine(doc, index=loaded)
        expr = parse_ftexpr('"vintage" or "treasure"')
        assert [
            (m.node.node_id, round(m.score, 9))
            for m in fresh.most_specific_matches(expr)
        ] == [
            (m.node.node_id, round(m.score, 9))
            for m in reloaded.most_specific_matches(expr)
        ]

    def test_subtree_counts_agree(self, doc, index, reload):
        loaded = reload(doc, index._postings, index.text_element_count)
        item = doc.nodes_with_tag("item")[0]
        for term in ("time", "vintag", "absentterm"):
            assert loaded.subtree_term_frequency(
                term, item
            ) == index.subtree_term_frequency(term, item)


def _posting(*node_ids):
    posting = Posting()
    for node_id in node_ids:
        posting.add(node_id, [0])
    return posting


class TestCorruptInputs:
    def test_bad_header(self, tmp_path):
        path = str(tmp_path / "postings.bin")
        diskfmt.write_postings(path, {"term": _posting(1)}, 1)
        _reseal(path, lambda payload: payload.__setitem__(slice(0, 8), b"X" * 8))
        with pytest.raises(CorruptStorageError, match="bad magic"):
            _open_postings(path)

    def test_missing_count(self, tmp_path):
        path = str(tmp_path / "postings.bin")
        diskfmt.write_postings(path, {}, 1)
        # Magic, format version, text-element count; the term count is cut.
        _reseal(path, lambda payload: payload.__delitem__(slice(20, None)))
        with pytest.raises(CorruptStorageError, match="end of file"):
            _open_postings(path)

    def test_out_of_range_node(self, doc, reload):
        loaded = reload(doc, {"term": _posting(1, 99_999_999)})
        with pytest.raises(CorruptStorageError, match="node 99999999"):
            loaded.posting("term")

    def test_garbled_entry(self, doc, reload):
        loaded = reload(doc, {"term": _posting(5, 3)})
        with pytest.raises(CorruptStorageError, match="out of order"):
            loaded.posting("term")
