"""Storage-plane observability: WAL, segment, hydration, compaction metrics."""

import os
import pathlib
import re
import struct

import pytest

from repro.backend import diskfmt
from repro.backend.disk import DiskBackend
from repro.engine import Engine
from repro.errors import CorruptStorageError
from repro.obs.metrics import REGISTRY
from repro.xmltree import parse
from tests.conftest import LIBRARY_XML

EXTRA_XML = (
    "<article><title>Streaming</title><section>"
    "<paragraph>incremental XML streaming</paragraph></section></article>"
)

DESIGN = pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md"

#: The metric families DESIGN §13.1 catalogs for the storage plane.
STORAGE_PREFIXES = ("wal.", "segment.", "disk.", "compaction.")


pytestmark = pytest.mark.usefixtures("clean_observability")


@pytest.fixture()
def corpus_dir(tmp_path):
    return str(tmp_path / "corpus")


def _seeded(corpus_dir):
    backend = DiskBackend.create(corpus_dir)
    backend.add_document(parse(LIBRARY_XML), name="library.xml")
    return backend


def _flip_byte(path, offset):
    """Invert one byte of a file in place (negative offsets count from the end)."""
    if offset < 0:
        offset += os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _tear_wal_tail(corpus_dir):
    """Append a record header whose body never reached the disk."""
    with open(os.path.join(corpus_dir, "wal.log"), "ab") as handle:
        handle.write(diskfmt.RECORD_MAGIC + struct.pack(">I", 999))


class TestWalMetrics:
    def test_append_counts_bytes_and_latency(self, corpus_dir):
        backend = _seeded(corpus_dir)
        try:
            assert REGISTRY.counter("wal.appends") == 1
            assert REGISTRY.counter("wal.append_bytes") > 0
            assert REGISTRY.histogram("wal.append_seconds")["count"] == 1
            assert REGISTRY.histogram("wal.fsync_seconds")["count"] == 1
            # The fsync is a slice of the append it belongs to.
            assert (
                REGISTRY.histogram("wal.append_seconds")["sum"]
                >= REGISTRY.histogram("wal.fsync_seconds")["sum"]
                >= 0
            )
        finally:
            backend.close()

    def test_replay_counts_records(self, corpus_dir):
        _seeded(corpus_dir).close()
        REGISTRY.reset()
        backend = DiskBackend.open(corpus_dir)
        backend.close()
        assert REGISTRY.counter("wal.replays") == 1
        assert REGISTRY.counter("wal.replay_records") == 1
        assert REGISTRY.counter("wal.torn_tail_truncations") == 0
        assert REGISTRY.counter("wal.truncated_bytes") == 0
        assert REGISTRY.histogram("wal.replay_seconds")["count"] == 1
        assert backend.generation == 1

    def test_torn_tail_truncation_is_counted(self, corpus_dir):
        _seeded(corpus_dir).close()
        _tear_wal_tail(corpus_dir)
        REGISTRY.reset()
        backend = DiskBackend.open(corpus_dir)
        backend.close()
        assert REGISTRY.counter("wal.torn_tail_truncations") == 1
        assert REGISTRY.counter("wal.truncated_bytes") > 0
        assert REGISTRY.counter("wal.replay_records") == 1

    def test_record_crc_failure_is_counted(self, corpus_dir):
        _seeded(corpus_dir).close()
        _flip_byte(os.path.join(corpus_dir, "wal.log"), -1)
        REGISTRY.reset()
        backend = DiskBackend.open(corpus_dir)
        backend.close()
        assert REGISTRY.counter("wal.crc_failures") == 1
        assert REGISTRY.counter("wal.replay_records") == 0
        assert REGISTRY.counter("wal.truncated_bytes") > 0


class TestSegmentMetrics:
    def test_open_counts_segment_loads(self, corpus_dir):
        _seeded(corpus_dir).close()
        REGISTRY.reset()
        backend = DiskBackend.open(corpus_dir)
        backend.close()
        assert REGISTRY.counter("segment.loads") == 3
        assert REGISTRY.counter("segment.load_bytes") > 0
        for kind in ("columns", "postings", "stats"):
            histogram = REGISTRY.histogram("segment.%s_decode_seconds" % kind)
            assert histogram["count"] == 1

    def test_seal_counts_each_artifact(self, corpus_dir):
        backend = _seeded(corpus_dir)
        try:
            assert REGISTRY.counter("segment.seals") == 3  # create() seals one segment
            backend.compact()
            assert REGISTRY.counter("segment.seals") == 6
            assert REGISTRY.histogram("segment.seal_seconds")["count"] == 6
            sealed = os.path.join(corpus_dir, "seg-00000002")
            assert REGISTRY.counter("segment.seal_bytes") > sum(
                os.path.getsize(os.path.join(sealed, name))
                for name in ("columns.bin", "postings.bin", "stats.bin")
            )
        finally:
            backend.close()

    def test_segment_crc_failure_is_counted(self, corpus_dir):
        _seeded(corpus_dir).close()
        columns = os.path.join(corpus_dir, "seg-00000001", "columns.bin")
        _flip_byte(columns, os.path.getsize(columns) // 2)
        REGISTRY.reset()
        with pytest.raises(CorruptStorageError, match=r"columns\.bin"):
            DiskBackend.open(corpus_dir)
        assert REGISTRY.counter("segment.crc_failures") == 1


class TestHydrationMetrics:
    def test_first_touch_hydrates_postings_directory(self, corpus_dir):
        backend = _seeded(corpus_dir)
        backend.compact()
        backend.close()
        REGISTRY.reset()
        backend = DiskBackend.open(corpus_dir)
        try:
            # Cold open defers both heavy decodes.
            assert REGISTRY.counter("disk.postings_directory_hydrations") == 0
            assert REGISTRY.counter("disk.statistics_hydrations") == 0
            backend.ir
            backend.statistics
            assert REGISTRY.counter("disk.postings_directory_hydrations") == 1
            assert REGISTRY.counter("disk.statistics_hydrations") == 1
            for name in (
                "disk.postings_directory_hydration_seconds",
                "disk.statistics_hydration_seconds",
            ):
                assert REGISTRY.histogram(name)["count"] == 1
            # Hydration is once per open backend.
            backend.ir
            assert REGISTRY.counter("disk.postings_directory_hydrations") == 1
            # The hydrated directory serves the sealed vocabulary.
            assert backend.ir.index.posting("stream") is not None
        finally:
            backend.close()

    def test_query_through_engine_hydrates_touched_postings(self, corpus_dir):
        backend = _seeded(corpus_dir)
        backend.compact()
        backend.close()
        REGISTRY.reset()
        engine = Engine.open(corpus_dir)
        try:
            # Wiring the engine's QueryContext touches ``ir`` once.
            assert REGISTRY.counter("disk.postings_directory_hydrations") == 1
            before = REGISTRY.counter("disk.posting_hydrations")
            engine.query('//article[.contains("streaming")]', k=3)
            assert REGISTRY.counter("disk.posting_hydrations") > before
        finally:
            engine.backend.close()


class TestCompactionMetrics:
    def test_compaction_span_and_gauges(self, corpus_dir):
        backend = _seeded(corpus_dir)
        try:
            assert REGISTRY.gauge("disk.wal_documents") == 1
            backend.compact()
            assert REGISTRY.counter("compaction.count") == 1
            assert REGISTRY.counter("compaction.documents_folded") == 1
            assert REGISTRY.histogram("compaction.seconds")["count"] == 1
            assert REGISTRY.histogram("compaction.seconds")["sum"] > 0
            assert REGISTRY.gauge("disk.generation") == 2
            assert REGISTRY.gauge("disk.wal_documents") == 0
        finally:
            backend.close()


class TestKillSwitch:
    def test_disabled_registry_records_nothing(self, corpus_dir):
        REGISTRY.enabled = False
        try:
            backend = _seeded(corpus_dir)
            backend.compact()
            backend.close()
            backend = DiskBackend.open(corpus_dir)
            backend.close()
        finally:
            REGISTRY.enabled = True
        snapshot = REGISTRY.as_dict()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}
        assert snapshot["gauges"] == {}


def _documented_storage_metrics():
    """``{name: kind}`` for every storage name in DESIGN §13.1's table."""
    section = DESIGN.read_text(encoding="utf-8").split("### 13.1 ")[1]
    section = section.split("\n### ")[0]
    documented = {}
    for names, kind in re.findall(r"^\| (`.+?`) \| (\w+) \|", section, flags=re.M):
        for name in re.findall(r"`([\w.]+)`", names):
            if name.startswith(STORAGE_PREFIXES):
                documented[name] = kind
    return documented


class TestCatalog:
    def test_a_disk_lifecycle_records_exactly_the_documented_metrics(
        self, corpus_dir
    ):
        """Every storage metric one lifecycle records is in DESIGN §13.1's
        table under its kind, and every name the table lists is recorded."""
        backend = _seeded(corpus_dir)
        backend.compact()
        backend.add_document(parse(EXTRA_XML), name="extra.xml")
        backend.close()
        _tear_wal_tail(corpus_dir)
        backend = DiskBackend.open(corpus_dir)
        assert backend.ir.index.posting("stream") is not None
        backend.statistics
        backend.close()
        _flip_byte(os.path.join(corpus_dir, "wal.log"), -1)
        DiskBackend.open(corpus_dir).close()
        columns = os.path.join(corpus_dir, "seg-00000002", "columns.bin")
        _flip_byte(columns, os.path.getsize(columns) // 2)
        with pytest.raises(CorruptStorageError):
            DiskBackend.open(corpus_dir)

        snapshot = REGISTRY.as_dict()
        recorded = {
            name: kind
            for kind in ("counter", "gauge", "histogram")
            for name in snapshot[kind + "s"]
            if name.startswith(STORAGE_PREFIXES)
        }
        assert recorded == _documented_storage_metrics()
