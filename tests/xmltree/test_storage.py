"""The dump file: a fragment payload in a magic + CRC32 envelope."""

import struct
import zlib

import pytest

from repro.errors import CorruptStorageError, FleXPathError
from repro.xmltree import dump_document, load_document, parse
from repro.xmltree.storage import (
    DUMP_MAGIC,
    decode_fragment,
    encode_fragment,
    read_document,
)
from repro.xmark import generate_document


@pytest.fixture()
def sample():
    return parse(
        '<lib note="v1">'
        "<book><title>Tabs\tand\nnewlines \\ here</title></book>"
        '<book lang="fr"><title>Deux</title></book>'
        "</lib>"
    )


def _write_dump(path, payload, magic=DUMP_MAGIC):
    """A dump file around ``payload`` whose CRC is correct."""
    data = magic + bytes(payload)
    path.write_bytes(data + struct.pack("<I", zlib.crc32(data)))
    return str(path)


def _tampered(tmp_path, edit):
    """Dump ``<a><b><c/></b><d/></a>`` after ``edit`` mangled its columns."""
    doc = parse("<a><b><c/></b><d/></a>")
    edit(doc.store)
    return _write_dump(tmp_path / "bad.fxd", encode_fragment(doc, ""))


# Byte offsets inside the payload of ``_tampered``'s document: the empty
# name (4), the tag count (4), four one-letter tags (4 × 5), the node count.
_TAGS_AT = 8
_COUNT_AT = _TAGS_AT + 4 * 5


class TestRoundTrip:
    def test_structure_preserved(self, sample, tmp_path):
        path = str(tmp_path / "doc.fxd")
        dump_document(sample, path)
        loaded = load_document(path)
        assert len(loaded) == len(sample)
        for original, copy in zip(sample.nodes(), loaded.nodes()):
            assert original.tag == copy.tag
            assert original.text == copy.text
            assert original.parent_id == copy.parent_id
            assert original.level == copy.level
            assert original.start == copy.start
            assert original.end == copy.end
            assert original.attributes == copy.attributes

    def test_escaping_survives(self, sample, tmp_path):
        path = str(tmp_path / "doc.fxd")
        dump_document(sample, path)
        loaded = load_document(path)
        title = loaded.nodes_with_tag("title")[0]
        assert "\\" in title.text

    def test_tag_index_rebuilt(self, sample, tmp_path):
        path = str(tmp_path / "doc.fxd")
        dump_document(sample, path)
        loaded = load_document(path)
        assert loaded.count("book") == 2
        starts = [n.start for n in loaded.nodes_with_tag("book")]
        assert starts == sorted(starts)

    def test_xmark_document_round_trips(self, tmp_path):
        doc = generate_document(target_bytes=20_000, seed=8)
        path = str(tmp_path / "auctions.fxd")
        dump_document(doc, path)
        loaded = load_document(path)
        assert loaded.stats_summary() == doc.stats_summary()
        # Region encodings must agree node for node.
        for original, copy in zip(doc.nodes(), loaded.nodes()):
            assert (original.start, original.end, original.level) == (
                copy.start,
                copy.end,
                copy.level,
            )

    def test_queries_agree_after_reload(self, tmp_path):
        from repro.query import parse_query
        from tests.spec.evaluate import evaluate

        doc = generate_document(target_bytes=20_000, seed=8)
        path = str(tmp_path / "auctions.fxd")
        dump_document(doc, path)
        loaded = load_document(path)
        query = parse_query("//item[./description/parlist]")
        assert [n.node_id for n in evaluate(query, doc)] == [
            n.node_id for n in evaluate(query, loaded)
        ]

    def test_engine_from_dump_answers_like_from_xml(self, tmp_path):
        from repro.engine import Engine
        from repro.xmark import PAPER_QUERIES
        from repro.xmltree import to_xml

        xml = to_xml(generate_document(target_bytes=20_000, seed=8))
        path = str(tmp_path / "auctions.fxd")
        dump_document(parse(xml), path)
        engines = [Engine.from_xml(xml), Engine.open(path)]
        for name in ("Q1", "Q2", "Q3"):
            answers = [
                [
                    (a.node_id, a.score.structural, a.score.keyword)
                    for a in engine.query(PAPER_QUERIES[name], k=10).answers
                ]
                for engine in engines
            ]
            assert answers[0] == answers[1], name


def _assert_same_nodes(first, second):
    assert len(first) == len(second)
    for original, copy in zip(first.nodes(), second.nodes()):
        assert original.tag == copy.tag
        assert original.text == copy.text
        assert original.parent_id == copy.parent_id
        assert original.level == copy.level
        assert original.start == copy.start
        assert original.end == copy.end
        assert original.attributes == copy.attributes


class TestFormatVersions:
    """The version lives in the magic; the ``v2`` names predate the codec."""

    def test_unknown_version_rejected(self, sample, tmp_path):
        path = _write_dump(
            tmp_path / "doc.fxd", encode_fragment(sample, ""), magic=b"FXDOC003"
        )
        with pytest.raises(CorruptStorageError, match="bad magic"):
            load_document(path)

    def test_fxdoc001_dump_fails_closed(self, tmp_path):
        """An ``FXDOC001`` dump stored a depth column: refused by its magic,
        named as a retired format to re-dump rather than parsed as XML,
        and its payload is not misread as the current three columns."""
        # dump_document(parse("<a><b>gold</b><c/></a>")) written while the
        # node table stored four columns (tag, parent, level, end).
        data = bytes.fromhex(
            "4658444f43303031000000000300000001000000610100000062010000006303"
            "000000000000000100000002000000ffffffff00000000000000000000000001"
            "0000000100000003000000020000000300000004000000000000000000000000"
            "0000000000000000000000000400000000000000040000000000000004000000"
            "00000000676f6c6400000000724644fc"
        )
        path = tmp_path / "old.fxd"
        path.write_bytes(data)
        with pytest.raises(CorruptStorageError, match="bad magic"):
            load_document(str(path))
        with pytest.raises(
            CorruptStorageError, match="FXDOC001.*re-dump from the XML"
        ):
            read_document(str(path))
        with pytest.raises(CorruptStorageError):
            decode_fragment(data[len(DUMP_MAGIC) : -4])

    def test_v2_round_trip_is_byte_exact(self, sample, tmp_path):
        first = tmp_path / "one.fxd"
        second = tmp_path / "two.fxd"
        dump_document(sample, str(first))
        dump_document(load_document(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_v2_interns_tags_once(self, tmp_path):
        short = tmp_path / "short.fxd"
        long = tmp_path / "long.fxd"
        dump_document(parse("<a>" + "<b/>" * 50 + "</a>"), str(short))
        dump_document(parse("<a>" + "<bbbbbbbbbb/>" * 50 + "</a>"), str(long))
        # Nodes carry a fixed-width tag id; the name is stored once.
        assert long.stat().st_size - short.stat().st_size == 9


class TestSeparatorEscaping:
    """The \\x1f attribute separator must survive dumps (regression)."""

    def _exotic_document(self):
        from repro.xmltree.builder import TreeBuilder

        builder = TreeBuilder()
        builder.start("root", {"sep": "a\x1fb", "tab": "a\tb=c", "back": "a\\b"})
        builder.start("child", {"nl": "a\nb", "uni": "ünïcødé ✓"})
        builder.end("child")
        builder.end("root")
        doc = builder.finish()
        # The builder normalizes whitespace (\x1f included), so plant the
        # raw control characters straight into the text column.
        doc.store.set_text(1, "text with \x1f separator and \\ backslash")
        return doc

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_control_characters_round_trip(self, tmp_path, rounds):
        doc = self._exotic_document()
        path = str(tmp_path / "doc.fxd")
        loaded = doc
        for _ in range(rounds):
            dump_document(loaded, path)
            loaded = load_document(path)
        _assert_same_nodes(doc, loaded)
        assert loaded.root.attributes == {
            "sep": "a\x1fb",
            "tab": "a\tb=c",
            "back": "a\\b",
        }
        assert loaded.node(1).text == "text with \x1f separator and \\ backslash"

    def test_separator_does_not_split_attributes(self, tmp_path):
        doc = self._exotic_document()
        path = str(tmp_path / "doc.fxd")
        dump_document(doc, path)
        loaded = load_document(path)
        assert len(loaded.root.attributes) == 3


class TestCorruptInputs:
    def test_bad_header(self, tmp_path):
        # A text dump of the retired ``flexpath-doc`` format is re-dumped
        # from its XML; loading it fails closed.
        path = tmp_path / "old.fxd"
        path.write_text("flexpath-doc 2\n1\t1\na\n-1\t0\t\t\n")
        with pytest.raises(CorruptStorageError, match="bad magic"):
            load_document(str(path))

    def test_missing_count(self, tmp_path):
        payload = encode_fragment(parse("<a><b><c/></b><d/></a>"), "")
        path = _write_dump(tmp_path / "bad.fxd", payload[:_COUNT_AT])
        with pytest.raises(CorruptStorageError, match="end of file"):
            load_document(path)

    def test_truncated(self, sample, tmp_path):
        path = tmp_path / "doc.fxd"
        dump_document(sample, str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptStorageError, match="CRC"):
            load_document(str(path))

    def test_forward_parent_reference(self, tmp_path):
        def edit(store):
            store.parent_ids[1] = 3

        with pytest.raises(CorruptStorageError, match="impossible parent 3"):
            load_document(_tampered(tmp_path, edit))

    def test_v2_missing_counts(self, tmp_path):
        path = _write_dump(tmp_path / "bad.fxd", struct.pack("<I", 0))
        with pytest.raises(CorruptStorageError, match="end of file"):
            load_document(path)

    def test_v2_truncated_tag_dictionary(self, tmp_path):
        payload = encode_fragment(parse("<a><b><c/></b><d/></a>"), "")
        path = _write_dump(tmp_path / "bad.fxd", payload[: _TAGS_AT + 5])
        with pytest.raises(CorruptStorageError, match="end of file"):
            load_document(path)

    def test_v2_truncated_nodes(self, tmp_path):
        payload = encode_fragment(parse("<a><b><c/></b><d/></a>"), "")
        path = _write_dump(tmp_path / "bad.fxd", payload[: _COUNT_AT + 4 + 16])
        with pytest.raises(CorruptStorageError, match="end of file"):
            load_document(path)

    def test_v2_unknown_tag_id(self, tmp_path):
        def edit(store):
            store.tag_ids[2] = 7

        with pytest.raises(CorruptStorageError, match="unknown tag id"):
            load_document(_tampered(tmp_path, edit))

    def test_v2_forward_parent_reference(self, tmp_path):
        def edit(store):
            store.parent_ids[3] = -7

        with pytest.raises(CorruptStorageError, match="impossible parent -7"):
            load_document(_tampered(tmp_path, edit))

    def test_empty_document_rejected(self, tmp_path):
        payload = struct.pack("<III", 0, 0, 0) + struct.pack("<QQQI", 1, 0, 0, 0)
        path = _write_dump(tmp_path / "bad.fxd", payload)
        with pytest.raises(CorruptStorageError, match="empty"):
            load_document(path)

    def test_corrupt_dumps_raise_the_storage_subclass(self, sample, tmp_path):
        # Every corruption shape funnels into CorruptStorageError, which
        # is a FleXPathError, so both old and new handlers keep working.
        assert issubclass(CorruptStorageError, FleXPathError)
        good = tmp_path / "good.fxd"
        dump_document(sample, str(good))
        data = good.read_bytes()
        shapes = [
            b"not a dump at all\n",
            b"",
            DUMP_MAGIC,
            data[:-1] + bytes([data[-1] ^ 0xFF]),  # CRC mismatch
            data + b"\x00",
        ]
        for index, body in enumerate(shapes):
            path = tmp_path / ("bad%d.fxd" % index)
            path.write_bytes(body)
            with pytest.raises(CorruptStorageError):
                load_document(str(path))
