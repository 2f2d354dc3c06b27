"""DiskBackend: durability, crash recovery, compaction, corruption."""

import os
import shutil
import struct

import pytest

from repro.backend import diskfmt
from repro.backend.disk import DiskBackend
from repro.engine import Engine
from repro.errors import CorruptStorageError, FleXPathError
from repro.xmltree import parse
from tests.conftest import LIBRARY_XML

EXTRA_XML = (
    "<article><title>Streaming</title><section>"
    "<paragraph>incremental XML streaming</paragraph></section></article>"
)

QUERY = '//article[./section[./paragraph and .contains("XML")]]'


def _fingerprint(backend):
    """Everything a query can observe, as one comparable value."""
    document = backend.document
    store = document.store
    return {
        "columns": (
            bytes(store.tag_ids),
            bytes(store.parent_ids),
            bytes(store.levels),
            bytes(store.ends),
        ),
        "tags": store.tags.names(),
        "texts": list(store.texts),
        "attrs": {k: dict(v) for k, v in store.attribute_table.items()},
        "fragments": backend.corpus.fragments(),
        "version": backend.version,
    }


@pytest.fixture
def corpus_dir(tmp_path):
    return str(tmp_path / "corpus")


@pytest.fixture
def seeded(corpus_dir):
    backend = DiskBackend.create(corpus_dir)
    backend.add_document(parse(LIBRARY_XML), name="library")
    backend.add_document(parse(EXTRA_XML), name="extra")
    yield backend
    backend.close()


class TestLifecycle:
    def test_create_then_reopen_is_identical(self, seeded, corpus_dir):
        before = _fingerprint(seeded)
        seeded.close()
        reopened = DiskBackend.open(corpus_dir)
        try:
            assert _fingerprint(reopened) == before
        finally:
            reopened.close()

    def test_create_twice_refuses(self, seeded, corpus_dir):
        with pytest.raises(FleXPathError, match="already exists"):
            DiskBackend.create(corpus_dir)

    def test_open_without_manifest_is_corrupt(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(CorruptStorageError, match="manifest"):
            DiskBackend.open(str(empty))

    def test_closed_backend_refuses_ingest(self, seeded):
        seeded.close()
        with pytest.raises(FleXPathError, match="closed"):
            seeded.add_document(parse(EXTRA_XML))
        with pytest.raises(FleXPathError, match="closed"):
            seeded.compact()

    def test_reopen_needs_no_xml_parse(self, seeded, corpus_dir, monkeypatch):
        seeded.close()
        import repro.xmltree.parser as parser_module

        def boom(*args, **kwargs):
            raise AssertionError("open() must not parse XML")

        monkeypatch.setattr(parser_module, "parse", boom)
        reopened = DiskBackend.open(corpus_dir)
        try:
            assert len(reopened.corpus) == 2
        finally:
            reopened.close()


class TestQueryParity:
    def _answers(self, backend):
        engine = Engine(backend, cache=False)
        return [
            (a.node_id, a.node.tag, a.score.structural, a.score.keyword)
            for a in engine.query(QUERY, k=10).answers
        ]

    def test_reopen_answers_identically(self, seeded, corpus_dir):
        expected = self._answers(seeded)
        assert expected
        seeded.close()
        reopened = DiskBackend.open(corpus_dir)
        try:
            assert self._answers(reopened) == expected
        finally:
            reopened.close()

    def test_compact_preserves_answers_and_version(self, seeded, corpus_dir):
        expected = self._answers(seeded)
        version = seeded.version
        generation = seeded.generation
        assert seeded.compact() == generation + 1
        # Compaction moves bytes between files; it is not a content
        # mutation, so cached plans/results keyed by version stay valid.
        assert seeded.version == version
        assert seeded.wal_documents == 0
        assert self._answers(seeded) == expected
        seeded.close()
        reopened = DiskBackend.open(corpus_dir)
        try:
            assert reopened.version == version
            assert reopened.generation == generation + 1
            assert self._answers(reopened) == expected
        finally:
            reopened.close()

    def test_ingest_after_compact_round_trips(self, seeded, corpus_dir):
        seeded.compact()
        seeded.add_document(parse(EXTRA_XML), name="late")
        expected = self._answers(seeded)
        before = _fingerprint(seeded)
        seeded.close()
        reopened = DiskBackend.open(corpus_dir)
        try:
            assert _fingerprint(reopened) == before
            assert self._answers(reopened) == expected
        finally:
            reopened.close()

    def test_engine_open_serves_disk_backend(self, seeded, corpus_dir):
        seeded.close()
        engine = Engine.open(corpus_dir)
        assert isinstance(engine.backend, DiskBackend)
        assert engine.query(QUERY, k=5).answers
        engine.backend.close()

    def test_engine_open_refuses_a_missing_path(self, tmp_path):
        with pytest.raises(FleXPathError, match="no such file or directory"):
            Engine.open(str(tmp_path / "auctions.xml"))
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("entries", [[], ["notes.txt"]])
    def test_engine_open_refuses_a_directory_that_holds_no_corpus(
        self, tmp_path, entries
    ):
        for name in entries:
            (tmp_path / name).write_text("not a corpus")
        with pytest.raises(FleXPathError, match="holds no corpus"):
            Engine.open(str(tmp_path))
        assert os.listdir(tmp_path) == entries


class TestCacheFencing:
    def test_ingest_bumps_version_and_invalidates(self, seeded):
        engine = Engine(seeded)
        first = engine.query(QUERY, k=5)
        assert engine.query(QUERY, k=5) is first  # cached
        seeded.add_document(parse(EXTRA_XML))
        second = engine.query(QUERY, k=5)
        assert second is not first

    def test_compact_does_not_invalidate(self, seeded):
        engine = Engine(seeded)
        first = engine.query(QUERY, k=5)
        seeded.compact()
        assert engine.query(QUERY, k=5) is first


class TestWALRecovery:
    def _record_span(self, corpus_dir):
        """Byte range [start, end) of the last WAL record."""
        wal_path = os.path.join(corpus_dir, "wal.log")
        with open(wal_path, "rb") as handle:
            data = handle.read()
        offset = diskfmt.WAL_HEADER_LEN
        spans = []
        while offset < len(data):
            length = struct.unpack_from("<I", data, offset + 4)[0]
            end = offset + 12 + length
            spans.append((offset, end))
            offset = end
        assert spans
        return wal_path, len(data), spans[-1]

    def test_truncation_at_every_byte_recovers_longest_prefix(
        self, seeded, corpus_dir, tmp_path
    ):
        """Satellite: cut the WAL mid-last-record at every byte boundary.

        Every cut inside the last record must recover exactly one document
        (no partial splice visible) at version 1; only the untouched file
        yields both.
        """
        seeded.close()
        wal_path, total, (last_start, last_end) = self._record_span(corpus_dir)
        assert last_end == total
        pristine = str(tmp_path / "pristine")
        shutil.copytree(corpus_dir, pristine)
        for cut in range(last_start, last_end + 1):
            shutil.rmtree(corpus_dir)
            shutil.copytree(pristine, corpus_dir)
            with open(wal_path, "r+b") as handle:
                handle.truncate(cut)
            backend = DiskBackend.open(corpus_dir)
            try:
                expect_docs = 2 if cut == last_end else 1
                assert len(backend.corpus) == expect_docs, cut
                assert backend.version == expect_docs, cut
                assert backend.corpus.names[0] == "library"
                # The torn tail must be gone from disk too, so the next
                # append starts at a clean record boundary.
                assert os.path.getsize(wal_path) == (
                    last_end if cut == last_end else last_start
                ), cut
            finally:
                backend.close()

    def test_recovery_then_ingest_then_reopen(self, seeded, corpus_dir):
        seeded.close()
        wal_path, _total, (last_start, last_end) = self._record_span(corpus_dir)
        with open(wal_path, "r+b") as handle:
            handle.truncate(last_end - 1)
        backend = DiskBackend.open(corpus_dir)
        backend.add_document(parse(EXTRA_XML), name="after-crash")
        before = _fingerprint(backend)
        backend.close()
        reopened = DiskBackend.open(corpus_dir)
        try:
            assert _fingerprint(reopened) == before
            assert reopened.corpus.names == ["library", "after-crash"]
        finally:
            reopened.close()

    def test_corrupt_record_crc_drops_tail(self, seeded, corpus_dir):
        seeded.close()
        wal_path, _total, (last_start, _last_end) = self._record_span(corpus_dir)
        with open(wal_path, "r+b") as handle:
            handle.seek(last_start + 14)  # inside the payload
            byte = handle.read(1)
            handle.seek(last_start + 14)
            handle.write(bytes([byte[0] ^ 0xFF]))
        backend = DiskBackend.open(corpus_dir)
        try:
            assert len(backend.corpus) == 1
            assert os.path.getsize(wal_path) == last_start
        finally:
            backend.close()

    def test_stale_generation_wal_is_discarded(self, seeded, corpus_dir):
        """A WAL left over from before a compaction flip replays nothing."""
        seeded.close()
        wal_path = os.path.join(corpus_dir, "wal.log")
        with open(wal_path, "r+b") as handle:
            handle.seek(8)
            handle.write(struct.pack("<Q", 99))  # wrong generation
        backend = DiskBackend.open(corpus_dir)
        try:
            assert len(backend.corpus) == 0  # records fenced out
            assert os.path.getsize(wal_path) == diskfmt.WAL_HEADER_LEN
        finally:
            backend.close()

    def test_missing_wal_opens_sealed_content(self, seeded, corpus_dir):
        seeded.compact()
        seeded.close()
        os.unlink(os.path.join(corpus_dir, "wal.log"))
        backend = DiskBackend.open(corpus_dir)
        try:
            assert len(backend.corpus) == 2
        finally:
            backend.close()


class TestSegmentCorruption:
    def _segment_file(self, corpus_dir, name):
        manifest = diskfmt.read_manifest(corpus_dir)
        return os.path.join(corpus_dir, manifest["segment"], name)

    @pytest.mark.parametrize("name", ["columns.bin", "postings.bin", "stats.bin"])
    def test_bit_flip_is_corrupt(self, seeded, corpus_dir, name):
        seeded.compact()
        seeded.close()
        path = self._segment_file(corpus_dir, name)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size // 2)
            byte = handle.read(1)
            handle.seek(size // 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CorruptStorageError, match="corrupt"):
            DiskBackend.open(corpus_dir)

    @pytest.mark.parametrize("name", ["columns.bin", "postings.bin", "stats.bin"])
    def test_truncated_segment_is_corrupt(self, seeded, corpus_dir, name):
        seeded.compact()
        seeded.close()
        path = self._segment_file(corpus_dir, name)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(CorruptStorageError, match="corrupt"):
            DiskBackend.open(corpus_dir)

    def test_bad_magic_is_corrupt(self, seeded, corpus_dir):
        seeded.compact()
        seeded.close()
        path = self._segment_file(corpus_dir, "columns.bin")
        with open(path, "r+b") as handle:
            handle.write(b"XXXXXXXX")
        with pytest.raises(CorruptStorageError, match="magic"):
            DiskBackend.open(corpus_dir)

    def test_invalid_manifest_json_is_corrupt(self, seeded, corpus_dir):
        seeded.close()
        with open(os.path.join(corpus_dir, "MANIFEST.json"), "w") as handle:
            handle.write("{not json")
        with pytest.raises(CorruptStorageError, match="manifest"):
            DiskBackend.open(corpus_dir)


class TestCompaction:
    def test_compact_removes_old_segments(self, seeded, corpus_dir):
        seeded.compact()
        seeded.add_document(parse(EXTRA_XML))
        seeded.compact()
        entries = sorted(os.listdir(corpus_dir))
        assert entries == ["MANIFEST.json", "seg-00000003", "wal.log"]
        assert seeded.generation == 3

    def test_compact_empties_wal(self, seeded, corpus_dir):
        assert seeded.wal_documents == 2
        seeded.compact()
        assert (
            os.path.getsize(os.path.join(corpus_dir, "wal.log"))
            == diskfmt.WAL_HEADER_LEN
        )

    def test_backend_keeps_serving_after_compact(self, seeded):
        # POSIX keeps the unlinked old segment readable through the held
        # mmap; lazy text/posting reads must keep working.
        engine = Engine(seeded, cache=False)
        seeded.compact()
        texts = list(seeded.document.store.texts)
        assert any("XML" in text for text in texts)
        assert engine.query(QUERY, k=5).answers


class TestLazyHydration:
    def test_sealed_texts_are_lazy(self, seeded, corpus_dir):
        seeded.compact()
        seeded.close()
        reopened = DiskBackend.open(corpus_dir)
        try:
            from repro.backend.diskfmt import LazyTextColumn

            texts = reopened.document.store.texts
            assert isinstance(texts, LazyTextColumn)
            assert len(texts) == len(reopened.document)
            # full_text slices through the lazy column
            node = reopened.document.node(1)
            assert reopened.document.full_text(node)
        finally:
            reopened.close()

    def test_sealed_postings_decode_on_demand(self, seeded, corpus_dir):
        seeded.compact()
        seeded.close()
        reopened = DiskBackend.open(corpus_dir)
        try:
            index = reopened.ir.index
            assert not index._postings  # nothing decoded yet
            posting = index.posting("xml")
            assert posting is not None and posting.node_ids
            assert "xml" in index._postings
            assert index.posting("zzz-not-a-term") is None
            assert index.vocabulary_size > 0
        finally:
            reopened.close()

    def test_growing_a_sealed_term_extends_one_posting(
        self, seeded, corpus_dir
    ):
        seeded.compact()
        seeded.close()
        reopened = DiskBackend.open(corpus_dir)
        try:
            before = list(reopened.ir.index.posting("xml").node_ids)
            reopened.add_document(parse(EXTRA_XML))
            after = reopened.ir.index.posting("xml").node_ids
            assert after[: len(before)] == before
            assert len(after) > len(before)
            assert after == sorted(after)
        finally:
            reopened.close()
