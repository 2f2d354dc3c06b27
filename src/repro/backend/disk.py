"""DiskBackend: a persistent StorageBackend over mmap'd columnar segments.

The on-disk corpus is a directory::

    corpus/
      MANIFEST.json        # format, generation, active segment, version
      seg-00000001/
        columns.bin        # sealed node table (mmap'd)
        postings.bin       # sealed inverted index (mmap'd, lazy per term)
        stats.bin          # sealed penalty statistics (pair counters)
      wal.log              # fsync'd append log of post-segment ingests

Cold start is ``open()`` = read manifest → mmap segments → replay the WAL
tail — no XML parse, no index rebuild, no statistics scan.  The structural
``int32`` columns hydrate with one ``frombytes`` memcpy each (they must
stay mutable: WAL replay and live ingest splice onto them), while the two
heavy payloads — element text and postings — are served lazily out of the
mappings and never materialize wholesale.

Ingest is write-ahead: :meth:`DiskBackend.add_document` encodes the parsed
fragment, appends it to ``wal.log`` (CRC-framed, ``fsync`` before the call
returns), and only then splices it into the live corpus.  A torn write at
any byte leaves a prefix of whole records; :meth:`open` recovers exactly
that prefix and truncates the rest.  :meth:`DiskBackend.compact` folds the
WAL tail into a sealed segment of the next generation — the generation
number written into both the manifest and the WAL header fences each log
to its segment, so a crash between the two resets cannot double-apply
records.

``DiskBackend`` subclasses :class:`InMemoryBackend`: once the segment is
hydrated it *is* an in-memory backend over a corpus whose storage happens
to be borrowed from a mapping, so navigation, join kernels, growth
cascade, and the conformance surface are all inherited.
"""

from __future__ import annotations

import os
import shutil
import threading
from time import perf_counter

from repro.backend import diskfmt
from repro.obs.metrics import REGISTRY
from repro.backend.memory import InMemoryBackend
from repro.backend.stats import DocumentStatistics
from repro.collection import Corpus
from repro.errors import CorruptStorageError, FleXPathError
from repro.ir.engine import IREngine
from repro.ir.index import InvertedIndex, Posting
from repro.xmltree.document import Document
from repro.xmltree.storage import decode_fragment, encode_fragment

WAL_NAME = "wal.log"
SEGMENT_PREFIX = "seg-"


def _segment_name(generation):
    return "%s%08d" % (SEGMENT_PREFIX, generation)


class DiskInvertedIndex(InvertedIndex):
    """An inverted index whose sealed postings decode lazily from a mapping.

    ``_postings`` holds only what has been touched: terms decoded on first
    probe, plus terms grown (or newly seen) by WAL-tail ingest.  A grown
    term hydrates its sealed posting *before* appending, so each term has
    exactly one live posting — never a sealed half and a tail half.
    """

    def __init__(self, document, mm, directory, text_elements, sealed_upto, name):
        self._document = document
        self._postings = {}
        self._mm = mm
        self._directory = directory
        self._name = name
        self._text_elements = text_elements
        self._indexed_upto = sealed_upto

    def posting(self, term):
        posting = self._postings.get(term)
        if posting is None:
            location = self._directory.get(term)
            if location is None:
                return None
            posting = diskfmt.decode_posting(
                self._mm, location[0], location[1], len(self._document),
                self._name,
            )
            self._postings[term] = posting
            if REGISTRY.enabled:
                REGISTRY.inc("disk.posting_hydrations")
        return posting

    def _posting_for_append(self, term):
        posting = self.posting(term)
        if posting is None:
            posting = self._postings.setdefault(term, Posting())
        return posting

    @property
    def vocabulary_size(self):
        return len(self._directory.keys() | self._postings.keys())

    def materialize_all(self):
        """Decode every sealed posting; returns the complete postings map.

        Used by :meth:`DiskBackend.compact` to seal the full vocabulary
        into the next segment generation.
        """
        for term in self._directory:
            self.posting(term)
        return self._postings


class DiskBackend(InMemoryBackend):
    """StorageBackend persisted as mmap'd segments + a write-ahead log."""

    def __init__(
        self,
        corpus,
        path,
        manifest,
        wal,
        postings_mm,
        postings_name,
        stats_buffer,
        stats_name,
        sealed_count,
        sealed_tags,
        mmaps,
    ):
        super().__init__(corpus)
        self._path = str(path)
        self._generation = manifest["generation"]
        self._wal = wal
        self._mmaps = list(mmaps)
        self._wal_documents = 0
        self._closed = False
        # Deferred (CRC-checked at open) segment payloads: the postings
        # directory and the statistics state decode on first touch of
        # :attr:`ir` / :attr:`statistics`, never on the cold-open path.
        self._postings_mm = postings_mm
        self._postings_name = postings_name
        self._stats_buffer = stats_buffer
        self._stats_name = stats_name
        self._sealed_count = sealed_count
        self._sealed_tags = sealed_tags
        self._materialize_mutex = threading.Lock()
        # Serializes add_document/compact against each other.  Distinct
        # from the corpus RWLock: this one also covers the WAL file and
        # the name-before-encode step, which happen before (and must stay
        # ordered with) the corpus splice.
        self._ingest_mutex = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(cls, path):
        """Initialize an empty on-disk corpus at ``path`` and open it.

        Refuses a directory that already holds a corpus, single or sharded.
        """
        from repro.backend.sharded import ShardedBackend

        path = str(path)
        if os.path.isdir(path) and ShardedBackend.shard_count_at(path):
            raise FleXPathError("a sharded corpus exists at %s" % path)
        os.makedirs(path, exist_ok=True)
        if os.path.exists(os.path.join(path, diskfmt.MANIFEST_NAME)):
            raise FleXPathError("corpus already exists at %s" % path)
        corpus = Corpus()
        _write_segment(
            path,
            generation=1,
            store=corpus.document.store,
            fragments=corpus.fragments(),
            postings={},
            text_elements=0,
            stats_state=DocumentStatistics(
                corpus.document, virtual_root_id=0
            ).state(),
        )
        diskfmt.write_manifest(
            path,
            {
                "format": diskfmt.FORMAT_VERSION,
                "generation": 1,
                "segment": _segment_name(1),
                "version": 0,
            },
        )
        wal = diskfmt.WriteAheadLog(os.path.join(path, WAL_NAME), 1)
        wal.reset(1)
        return cls.open(path)

    @classmethod
    def open(cls, path):
        """Open an on-disk corpus: mmap segments, replay the WAL tail.

        No XML is parsed and no index or statistics pass runs — the cost
        is one manifest read, three mmaps, one memcpy per structural
        column, and one decode per surviving WAL record.
        """
        path = str(path)
        manifest = diskfmt.read_manifest(path)
        segment_dir = os.path.join(path, manifest["segment"])
        store, fragments, columns_mm = diskfmt.read_columns(
            os.path.join(segment_dir, "columns.bin")
        )
        mmaps = [columns_mm]
        try:
            postings_path = os.path.join(segment_dir, "postings.bin")
            stats_path = os.path.join(segment_dir, "stats.bin")
            # Envelope (magic + CRC) checks run now so a torn or flipped
            # segment fails the open; the Python-level decodes are
            # deferred to first full-text / statistics touch.
            postings_mm = diskfmt.map_segment(
                postings_path, diskfmt.POSTINGS_MAGIC, "postings"
            )
            mmaps.append(postings_mm)
            stats_buffer = diskfmt.map_segment(
                stats_path, diskfmt.STATS_MAGIC, "stats"
            )
            mmaps.append(stats_buffer)
        except CorruptStorageError:
            for mm in mmaps:
                mm.close()
            raise
        document = Document(store)
        corpus = Corpus.adopt(document, fragments, version=manifest["version"])
        backend = cls(
            corpus,
            path,
            manifest,
            diskfmt.WriteAheadLog(
                os.path.join(path, WAL_NAME), manifest["generation"]
            ),
            postings_mm=postings_mm,
            postings_name=postings_path,
            stats_buffer=stats_buffer,
            stats_name=stats_path,
            sealed_count=len(document),
            sealed_tags=len(store.tags),
            mmaps=mmaps,
        )
        backend._replay_wal(manifest["generation"])
        return backend

    def _replay_wal(self, generation):
        """Re-apply the surviving WAL records through the normal splice path.

        Each record replays via ``corpus.add_document`` — the same code
        path live ingest takes — so the growth cascade extends the index
        and statistics incrementally and the corpus version lands at
        ``manifest version + records``, exactly where it was before the
        restart.
        """
        for payload in self._wal.recover(generation):
            try:
                document, name = decode_fragment(
                    payload, name=self._wal.path
                )
            except CorruptStorageError:
                raise
            except Exception as error:
                raise CorruptStorageError(
                    "corrupt %s: undecodable record (%s)"
                    % (self._wal.path, error)
                ) from None
            self.corpus.add_document(document, name=name)
            self._wal_documents += 1
        if REGISTRY.enabled:
            REGISTRY.set_gauge("disk.generation", self._generation)
            REGISTRY.set_gauge("disk.wal_documents", self._wal_documents)

    def close(self):
        """Release the WAL handle and segment mappings.

        The backend must not be used afterwards: lazy text and posting
        reads go straight to the mappings being closed here.
        """
        if self._closed:
            return
        self._closed = True
        self._wal.close()
        for mm in self._mmaps:
            try:
                mm.close()
            except BufferError:
                pass  # a live memoryview pins the map; the OS reclaims on exit

    # -- lazy hydration of the sealed segment payloads -------------------------

    @property
    def ir(self):
        """The full-text engine, hydrated from the sealed postings segment.

        First touch parses the term directory, wires a
        :class:`DiskInvertedIndex` over the mapping, and indexes whatever
        WAL-tail nodes were spliced before the touch.  Callers hold the
        corpus read (or write) lock here, so the document cannot grow
        mid-build; later growth extends the built index via the normal
        cascade.
        """
        if self._ir is None:
            with self._materialize_mutex:
                if self._ir is None:
                    started = perf_counter()
                    directory, text_elements = (
                        diskfmt.parse_postings_directory(
                            self._postings_mm, self._postings_name
                        )
                    )
                    index = DiskInvertedIndex(
                        self._document,
                        self._postings_mm,
                        directory,
                        text_elements,
                        sealed_upto=self._sealed_count,
                        name=self._postings_name,
                    )
                    if len(self._document) > self._sealed_count:
                        index.extend(self._sealed_count, len(self._document))
                    self._ir = IREngine(
                        self._document, index=index, virtual_root_id=0
                    )
                    self._observe_hydration("postings_directory", started)
        return self._ir

    @property
    def statistics(self):
        """Penalty statistics, hydrated from the sealed stats segment.

        First touch decodes the sealed counts and folds in any WAL-tail
        documents spliced before the touch (same locking argument as
        :attr:`ir`); the sealed nodes are never recounted.
        """
        if self._statistics is None:
            with self._materialize_mutex:
                if self._statistics is None:
                    started = perf_counter()
                    state = diskfmt.parse_stats(
                        self._stats_buffer,
                        self._sealed_count,
                        self._sealed_tags,
                        self._stats_name,
                    )
                    statistics = DocumentStatistics.from_state(
                        self._document, state, virtual_root_id=0
                    )
                    if len(self._document) > self._sealed_count:
                        statistics.extend(self._sealed_count)
                    self._statistics = statistics
                    self._observe_hydration("statistics", started)
        return self._statistics

    @staticmethod
    def _observe_hydration(kind, started):
        """Record one lazy sealed-payload materialization."""
        if REGISTRY.enabled:
            REGISTRY.inc("disk.%s_hydrations" % kind)
            REGISTRY.observe(
                "disk.%s_hydration_seconds" % kind, perf_counter() - started
            )

    # -- ingest ----------------------------------------------------------------

    @property
    def path(self):
        return self._path

    @property
    def generation(self):
        """Sealed-segment generation currently backing this corpus."""
        return self._generation

    @property
    def wal_documents(self):
        """Documents living only in the WAL tail (folded by compact)."""
        return self._wal_documents

    def add_document(self, document, name=None):
        """Durably ingest a parsed document: WAL first, then splice.

        The record is CRC-framed and fsync'd before the corpus mutates, so
        every document a caller saw acknowledged survives a crash, and a
        crash mid-append leaves only a torn tail that recovery truncates.
        """
        if self._closed:
            raise FleXPathError("backend is closed")
        with self._ingest_mutex:
            if name is None:
                name = "doc%d" % len(self.corpus)
            self._wal.append(encode_fragment(document, name))
            root = self.corpus.add_document(document, name=name)
            self._wal_documents += 1
            if REGISTRY.enabled:
                REGISTRY.set_gauge("disk.wal_documents", self._wal_documents)
            return root

    def compact(self):
        """Fold the WAL tail into a sealed segment of the next generation.

        Writes the complete current corpus (columns, full postings map,
        statistics) as ``seg-<g+1>``, flips the manifest atomically, resets
        the WAL under the new generation number, and removes older segment
        directories.  The open backend keeps serving throughout: its
        mappings stay valid after the unlink (POSIX), and queries only
        need the corpus read lock this method takes.

        Crash safety is the generation fence: until the manifest flip the
        old segment + old WAL reproduce everything; after the flip a stale
        WAL header's generation no longer matches and recovery discards
        its (already folded) records.
        """
        if self._closed:
            raise FleXPathError("backend is closed")
        with self._ingest_mutex:
            started = perf_counter()
            folded = self._wal_documents
            with self.lock.read_locked():
                new_generation = self._generation + 1
                _write_segment(
                    self._path,
                    generation=new_generation,
                    store=self.document.store,
                    fragments=self.corpus.fragments(),
                    postings=self.ir.index.materialize_all()
                    if isinstance(self.ir.index, DiskInvertedIndex)
                    else dict(self.ir.index._postings),
                    text_elements=self.ir.index.text_element_count,
                    stats_state=self.statistics.state(),
                )
                diskfmt.write_manifest(
                    self._path,
                    {
                        "format": diskfmt.FORMAT_VERSION,
                        "generation": new_generation,
                        "segment": _segment_name(new_generation),
                        "version": self.version,
                    },
                )
            self._wal.reset(new_generation)
            old_generation = self._generation
            self._generation = new_generation
            self._wal_documents = 0
            for generation in range(1, old_generation + 1):
                stale = os.path.join(self._path, _segment_name(generation))
                shutil.rmtree(stale, ignore_errors=True)
            if REGISTRY.enabled:
                REGISTRY.inc_many(
                    {"compaction.count": 1, "compaction.documents_folded": folded}
                )
                REGISTRY.observe("compaction.seconds", perf_counter() - started)
                REGISTRY.set_gauge("disk.generation", new_generation)
                REGISTRY.set_gauge("disk.wal_documents", 0)
            return new_generation

    def describe(self):
        info = super().describe()
        info.update(
            {
                "path": self._path,
                "generation": self._generation,
                "wal_documents": self._wal_documents,
                "documents": len(self.corpus),
            }
        )
        return info


def _write_segment(
    path, generation, store, fragments, postings, text_elements, stats_state
):
    """Seal one corpus snapshot as ``seg-<generation>`` (atomic via rename)."""
    final_dir = os.path.join(str(path), _segment_name(generation))
    tmp_dir = final_dir + ".tmp"
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir)
    diskfmt.write_columns(os.path.join(tmp_dir, "columns.bin"), store, fragments)
    diskfmt.write_postings(
        os.path.join(tmp_dir, "postings.bin"), postings, text_elements
    )
    diskfmt.write_stats(os.path.join(tmp_dir, "stats.bin"), stats_state)
    if os.path.exists(final_dir):
        shutil.rmtree(final_dir)
    os.rename(tmp_dir, final_dir)
    diskfmt.fsync_directory(path)
    return final_dir
