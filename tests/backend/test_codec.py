"""The node-table codec under hostile bytes: dump files, WAL records, segments.

Every decoder runs the same validator, so a region encoding that
contradicts its parent column is refused wherever it comes from, and no
truncation or single-byte flip gets past a decoder as anything but
:class:`~repro.errors.CorruptStorageError` or the original document.

A sealed segment's postings and statistics payloads are decoded on first
touch, past the open-time CRC check; the same truncations and flips there
must fail closed — only a :class:`~repro.errors.FleXPathError` may escape
an open, a query or a statistics read.  Positions are not validated, so a
flipped position byte may change a phrase answer: the contract there is
"refused or harmless", not "refused or equal".
"""

import os
import struct
import zlib
import pytest

from repro import Engine
from repro.backend import diskfmt
from repro.backend.disk import DiskBackend
from repro.collection import Corpus
from repro.errors import CorruptStorageError, FleXPathError
from repro.xmltree import dump_document, load_document, parse
from repro.xmltree.storage import decode_fragment, encode_fragment

# Small on purpose: under 128 text bytes, so a flipped offset byte always
# leaves the offset table non-monotonic or past the blob.
XML = (
    '<lib note="ü"><book id="7"><title>Tabs ü</title>'
    "<year>1999</year></book><book/></lib>"
)


def _columns(store):
    """Every column of a node table, as one comparable value."""
    return (
        store.tags.names(),
        bytes(store.tag_ids),
        bytes(store.parent_ids),
        bytes(store.ends),
        list(store.texts),
        store.attribute_table,
        {tag_id: bytes(ids) for tag_id, ids in store.tag_node_ids.items()},
    )


def _seal(payload):
    return bytes(payload) + struct.pack("<I", zlib.crc32(payload))


def _dump_case(tmp_path):
    path = tmp_path / "doc.fxd"
    dump_document(parse(XML), str(path))

    def decode(data):
        path.write_bytes(data)
        return _columns(load_document(str(path)).store)

    return path.read_bytes()[:-4], decode, _seal


def _wal_case(tmp_path):
    def decode(data):
        document, name = decode_fragment(data)
        return _columns(document.store), name

    return encode_fragment(parse(XML), "lib"), decode, bytes


def _columns_case(tmp_path):
    corpus = Corpus()
    corpus.add_document(parse(XML), name="lib")
    path = tmp_path / "columns.bin"
    diskfmt.write_columns(str(path), corpus.document.store, corpus.fragments())

    def decode(data):
        path.write_bytes(data)
        store, fragments, mm = diskfmt.read_columns(str(path))
        try:
            return _columns(store), fragments
        finally:
            mm.close()

    return path.read_bytes()[:-4], decode, _seal


def _hostile(payload):
    """Every truncation of ``payload``, then every single-byte flip of it."""
    for cut in range(len(payload)):
        yield payload[:cut]
    for at in range(len(payload)):
        flipped = bytearray(payload)
        flipped[at] ^= 0xFF
        yield bytes(flipped)


@pytest.mark.parametrize(
    "case", [_dump_case, _wal_case, _columns_case], ids=["dump", "wal", "columns"]
)
def test_hostile_bytes_are_refused_or_harmless(case, tmp_path):
    """Truncate at every byte; flip every byte with the CRC recomputed."""
    payload, decode, seal = case(tmp_path)
    expected = decode(seal(payload))
    for data in _hostile(payload):
        try:
            got = decode(seal(data))
        except CorruptStorageError:
            continue
        assert got == expected


SEGMENT_XML = (
    "<lib><book><title>gold ring</title><year>1999</year></book>"
    "<book><title>silver ring</title><note>gold</note></book></lib>"
)


def _touch(path):
    """Open the corpus, run a ``contains`` and a structural query, and read
    the statistics: what a serving engine does first."""
    engine = Engine.open(path, cache=False)
    try:
        engine.query('//book[./title[.contains("gold ring")]]', k=3, algorithm="sso")
        engine.query("//lib[./book/year]", k=3, algorithm="dpo")
        engine.backend.statistics.tag_count("book")
    finally:
        engine.backend.close()


@pytest.mark.parametrize("artifact", ["postings.bin", "stats.bin"])
def test_hostile_segment_payloads_fail_closed(artifact, tmp_path):
    """Truncate at every byte; flip every byte with the CRC recomputed."""
    path = str(tmp_path / "corpus")
    backend = DiskBackend.create(path)
    backend.add_document(parse(SEGMENT_XML), name="lib")
    backend.compact()  # one sealed segment, an empty WAL
    backend.close()
    target = os.path.join(path, diskfmt.read_manifest(path)["segment"], artifact)
    with open(target, "rb") as handle:
        payload = handle.read()[:-4]
    _touch(path)
    for data in _hostile(payload):
        with open(target, "wb") as handle:
            handle.write(_seal(data))
        try:
            _touch(path)
        except FleXPathError:
            pass


class TestStructureRepros:
    """Well-framed tables a CRC cannot tell from good ones."""

    def _decode(self, edit):
        document = parse("<a><b><c/></b><d/></a>")
        edit(document.store)
        return decode_fragment(encode_fragment(document, "doc"))

    def test_region_end_alone_is_checked_against_the_subtrees(self):
        def edit(store):
            store.ends[1] = 4

        with pytest.raises(CorruptStorageError, match="disagree"):
            self._decode(edit)

    def test_negative_parent_is_refused(self):
        def edit(store):
            store.parent_ids[3] = -7

        with pytest.raises(CorruptStorageError, match="impossible parent -7"):
            self._decode(edit)

    def test_child_region_must_nest_in_its_parent(self):
        def edit(store):
            # Region sizes still sum right (4 + 1 + 2 + 1); only nesting
            # shows that <c>'s region leaves <b>'s.
            store.ends[1] = 2
            store.ends[2] = 4

        with pytest.raises(CorruptStorageError, match="node 2 has region end 4"):
            self._decode(edit)

    def test_repeated_tag_name_is_refused(self):
        from repro.xmltree import TagDictionary

        def edit(store):
            store.tags = TagDictionary(["a", "b", "c", "c"])

        with pytest.raises(CorruptStorageError, match="duplicate tag name"):
            self._decode(edit)

    def test_trailing_bytes_are_refused(self):
        payload = encode_fragment(parse("<a/>"), "doc")
        with pytest.raises(CorruptStorageError, match="trailing bytes"):
            decode_fragment(payload + b"\x00")

    def test_segment_fragments_must_be_the_roots_children(self, tmp_path):
        corpus = Corpus()
        corpus.add_document(parse("<a><b/></a>"), name="one")
        corpus.add_document(parse("<a><b/></a>"), name="two")
        path = str(tmp_path / "columns.bin")
        store = corpus.document.store
        (first, second) = corpus.fragments()
        for fragments, problem in [
            ([first], "does not cover"),
            ([first, (second[0] + 1, second[1], "two")], "not a child"),
            ([second, first], "not a child"),
        ]:
            diskfmt.write_columns(path, store, fragments)
            with pytest.raises(CorruptStorageError, match=problem):
                diskfmt.read_columns(path)
