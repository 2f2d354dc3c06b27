"""Binary on-disk format for :class:`~repro.backend.disk.DiskBackend`.

Everything here is pure serialization — no locking, no backend state.  The
format (DESIGN §12) has three kinds of artifact, all little-endian,
fixed-width (``struct``), and CRC-protected:

- **Column segment** (``columns.bin``): the whole node table of a sealed
  corpus generation — interned tag dictionary, then the node table exactly
  as :func:`repro.xmltree.storage.write_node_table` lays it out for a WAL
  fragment (three ``int32`` columns, text table, attribute table), then the
  fragment table (each source document's root id and name; its region end
  is read off the ``ends`` column).  The tag index is rebuilt from the tag
  column at open, never stored.  Readers
  ``mmap`` the file: the structural columns hydrate into ``array('i')``
  with one ``frombytes`` memcpy each (they must stay mutable for WAL-tail
  growth), while the text payload — usually the bulk of the bytes — is
  served lazily out of the mapping by :class:`LazyTextColumn` and never
  materialized wholesale.
- **Postings segment** (``postings.bin``): the inverted index as a term
  directory (term, offset, entry count) plus per-term posting blobs.  Only
  the directory is decoded at open; posting blobs decode on first probe,
  straight out of the mapping (see ``DiskInvertedIndex``).
- **Statistics segment** (``stats.bin``): the §4.3.1/§6 pair counters of
  :class:`~repro.backend.stats.DocumentStatistics`, integers only — a few
  rows per tag pair, whatever the node count.  No node-id set is kept: the
  counts of later (WAL-tail) documents simply add, because every document
  is spliced under the excluded virtual root, so none of its pairs or
  distinct parents/ancestors involve a sealed node.  ``#(t)`` is not
  stored; it is the length of a tag's list in the rebuilt tag index.

Plus the **write-ahead log** (``wal.log``): a 16-byte header (magic +
generation) followed by self-delimiting records ``FXR1 | u32 length |
u32 crc32(payload) | payload``, each payload a
:func:`~repro.xmltree.storage.encode_fragment` document fragment.
:class:`WriteAheadLog` fsyncs every append and, on open, recovers the
longest valid record prefix, truncating any torn tail in place.

The byte cursors, the envelope check and the node-table validator live
in :mod:`repro.xmltree.storage`, so dump files, WAL records and column
segments refuse the same bytes.  Every reader raises
:class:`~repro.errors.CorruptStorageError` — never a raw
``struct.error``/``ValueError``/``IndexError`` — naming the file and the
byte offset where validation failed.

Every I/O seam here reports into the process metrics registry (DESIGN
§13) with the zero-overhead-when-off contract: each seam pays one
``REGISTRY.enabled`` attribute check when the registry is killed.  WAL
appends time the write and the fsync separately (``wal.append_seconds`` /
``wal.fsync_seconds``), recovery counts replayed records and torn-tail
truncations, segment reads/writes observe per-artifact decode/seal
latency and bytes (``segment.*``), and every failed envelope or record
check increments a CRC-failure counter.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from time import perf_counter

from repro.backend.stats import COUNTERS
from repro.errors import CorruptStorageError
from repro.ir.index import Posting
from repro.obs.metrics import REGISTRY
from repro.xmltree.document import ColumnarStore
from repro.xmltree.storage import (
    ByteReader,
    ByteWriter,
    check_envelope,
    read_attributes,
    read_columns_into,
    read_tags,
    read_text_table,
    validate_node_table,
    write_node_table,
)

SEGMENT_MAGIC = b"FXSEG001"
POSTINGS_MAGIC = b"FXPST001"
STATS_MAGIC = b"FXSTA001"
WAL_MAGIC = b"FXWAL001"
RECORD_MAGIC = b"FXR1"

FORMAT_VERSION = 3
MANIFEST_NAME = "MANIFEST.json"

WAL_HEADER_LEN = 16  # 8-byte magic + u64 generation
_RECORD_HEADER = struct.Struct("<4sII")  # magic, payload length, payload crc

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _observe_segment_load(kind, size, seconds):
    """Fold one sealed-artifact read into the registry."""
    REGISTRY.inc_many({"segment.loads": 1, "segment.load_bytes": size})
    REGISTRY.observe("segment.%s_decode_seconds" % kind, seconds)


def _seal(writer, path):
    """Write ``writer``'s payload + trailing CRC32 to ``path``, fsync'd."""
    observing = REGISTRY.enabled
    started = perf_counter() if observing else 0.0
    data = writer.data
    data += _U32.pack(zlib.crc32(data))
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if observing:
        REGISTRY.inc_many({"segment.seals": 1, "segment.seal_bytes": len(data)})
        REGISTRY.observe("segment.seal_seconds", perf_counter() - started)


def _check_magic_and_crc(buffer, magic, name):
    """:func:`check_envelope`, counted as a segment CRC failure."""
    try:
        return check_envelope(buffer, magic, name)
    except CorruptStorageError:
        REGISTRY.inc("segment.crc_failures")
        raise


def _map(path, what):
    """Read-only ``mmap`` of a sealed artifact."""
    try:
        with open(path, "rb") as handle:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as error:
        raise CorruptStorageError(
            "corrupt %s: cannot map %s (%s)" % (path, what, error)
        ) from None


# -- column segment ------------------------------------------------------------


def write_columns(path, store, fragments):
    """Seal a node table (+ fragment table) into ``columns.bin``."""
    writer = ByteWriter()
    writer.raw(SEGMENT_MAGIC)
    writer.u32(FORMAT_VERSION)
    writer.u64(len(store))
    tags = store.tags.names()
    writer.u32(len(tags))
    writer.u32(len(fragments))
    for tag in tags:
        writer.text(tag)
    write_node_table(writer, store)
    for start, _end, name in fragments:
        writer.i32(start)
        writer.text(name)
    _seal(writer, path)


def read_columns(path):
    """Open a sealed column segment.

    Returns ``(store, fragments, mm)`` — a :class:`ColumnarStore` whose
    structural columns are hydrated ``array('i')`` copies and whose text
    column reads lazily out of the returned ``mmap`` (keep it open for the
    store's lifetime), and the ``(start, end, name)`` fragment table.  The
    table passes :func:`validate_node_table`, which rebuilds the tag
    index, and the fragment table must list exactly the virtual root's
    children.
    """
    name = str(path)
    started = perf_counter()
    mm = _map(path, "segment")
    try:
        payload_end = _check_magic_and_crc(mm, SEGMENT_MAGIC, name)
        reader = ByteReader(mm, name, offset=len(SEGMENT_MAGIC))
        version = reader.u32()
        if version != FORMAT_VERSION:
            reader.fail("unsupported segment format version %d" % version)
        count = reader.u64()
        tag_count = reader.u32()
        fragment_count = reader.u32()
        store = ColumnarStore()
        store.tags = read_tags(reader, tag_count)
        read_columns_into(store, reader, count)
        _offsets, offsets_at, blob_at = read_text_table(reader, count)
        store.texts = LazyTextColumn(mm, offsets_at, blob_at, count, name)
        store.attribute_table = read_attributes(reader, count)
        roots = [(reader.i32(), reader.text()) for _ in range(fragment_count)]
        if reader.offset != payload_end:
            reader.fail("trailing bytes after the fragment table")
        store.tag_node_ids = validate_node_table(store, reader)
        fragments = []
        child = 1  # fragments are the root's children, in id order
        for start, name in roots:
            if start != child or start >= count or store.parent_ids[start]:
                reader.fail("fragment %d is not a child of the root" % start)
            child = store.ends[start]
            fragments.append((start, child, name))
        if child != count:
            reader.fail("fragment table does not cover the corpus")
        if REGISTRY.enabled:
            _observe_segment_load("columns", len(mm), perf_counter() - started)
        return store, fragments, mm
    except CorruptStorageError:
        mm.close()
        raise
    except Exception as error:
        mm.close()
        raise CorruptStorageError(
            "corrupt %s: %s" % (name, error)
        ) from None


class LazyTextColumn:
    """The text column of a sealed segment: mmap-backed base + list tail.

    List-compatible for every operation the engine performs on
    ``store.texts`` (index, slice, iterate, append/extend for WAL-tail
    growth), but the sealed region decodes per access straight out of the
    segment mapping — the text payload never materializes wholesale, which
    is what keeps corpora bigger than RAM serveable.  The offsets were
    checked at open; a text that is not UTF-8 raises
    :class:`~repro.errors.CorruptStorageError` when first read.
    """

    __slots__ = ("_mm", "_offsets_at", "_blob_at", "_count", "_tail", "_name")

    def __init__(self, mm, offsets_at, blob_at, count, name):
        self._mm = mm
        self._offsets_at = offsets_at
        self._blob_at = blob_at
        self._count = count
        self._tail = []
        self._name = name

    def _base_text(self, index):
        at = self._offsets_at + 8 * index
        start = _U64.unpack_from(self._mm, at)[0]
        end = _U64.unpack_from(self._mm, at + 8)[0]
        try:
            return self._mm[self._blob_at + start : self._blob_at + end].decode(
                "utf-8"
            )
        except UnicodeDecodeError:
            raise CorruptStorageError(
                "corrupt %s: text of node %d is not UTF-8" % (self._name, index)
            ) from None

    def __len__(self):
        return self._count + len(self._tail)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            return [self[i] for i in range(start, stop, step)]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("text column index out of range")
        if index < self._count:
            return self._base_text(index)
        return self._tail[index - self._count]

    def __setitem__(self, index, text):
        if index < 0:
            index += len(self)
        if index < self._count:
            raise TypeError("sealed segment texts are immutable")
        self._tail[index - self._count] = text

    def __iter__(self):
        for index in range(self._count):
            yield self._base_text(index)
        yield from self._tail

    def append(self, text):
        self._tail.append(text)

    def extend(self, texts):
        self._tail.extend(texts)

    def __repr__(self):
        return "LazyTextColumn(sealed=%d, tail=%d)" % (
            self._count,
            len(self._tail),
        )


# -- postings segment ----------------------------------------------------------


def write_postings(path, postings, text_elements):
    """Seal a fully materialized ``{term: Posting}`` map into ``postings.bin``."""
    terms = sorted(postings)
    blobs = []
    for term in terms:
        posting = postings[term]
        blob = ByteWriter()
        for node_id, positions in zip(posting.node_ids, posting.position_lists):
            blob.i32(node_id)
            blob.u32(len(positions))
            for position in positions:
                blob.u32(position)
        blobs.append(bytes(blob.data))

    writer = ByteWriter()
    writer.raw(POSTINGS_MAGIC)
    writer.u32(FORMAT_VERSION)
    writer.u64(text_elements)
    writer.u64(len(terms))
    directory_size = sum(
        4 + len(term.encode("utf-8")) + 16 for term in terms
    )
    offset = len(writer.data) + directory_size
    for term, blob in zip(terms, blobs):
        writer.text(term)
        writer.u64(offset)
        writer.u64(len(postings[term].node_ids))
        offset += len(blob)
    for blob in blobs:
        writer.raw(blob)
    _seal(writer, path)


def map_segment(path, magic, kind):
    """Map a sealed ``postings``/``stats`` artifact and verify its envelope.

    Returns the ``mmap`` only — the payload parse is Python-level work
    proportional to the vocabulary or tag pairs, so cold start defers it to
    :func:`parse_postings_directory` / :func:`parse_stats` on first touch.
    The CRC pass here is C-speed and catches torn or flipped segments at
    ``open()`` time, where the caller can still fail the whole corpus.
    """
    name = str(path)
    started = perf_counter()
    mm = _map(path, kind)
    try:
        _check_magic_and_crc(mm, magic, name)
    except CorruptStorageError:
        mm.close()
        raise
    if REGISTRY.enabled:
        _observe_segment_load(kind, len(mm), perf_counter() - started)
    return mm


def parse_postings_directory(mm, name="postings segment"):
    """Parse the term directory of a mapped (CRC-checked) postings segment.

    Returns ``(directory, text_elements)`` where ``directory`` maps
    term → ``(offset, entry_count)`` into the mapping.  Decode individual
    terms with :func:`decode_posting`.
    """
    try:
        payload_end = len(mm) - 4
        reader = ByteReader(mm, name, offset=len(POSTINGS_MAGIC))
        version = reader.u32()
        if version != FORMAT_VERSION:
            reader.fail("unsupported postings format version %d" % version)
        text_elements = reader.u64()
        term_count = reader.u64()
        directory = {}
        for _ in range(term_count):
            term = reader.text()
            offset = reader.u64()
            entries = reader.u64()
            if offset > payload_end:
                reader.fail("posting offset for %r out of bounds" % term)
            directory[term] = (offset, entries)
        return directory, text_elements
    except CorruptStorageError:
        raise
    except Exception as error:
        raise CorruptStorageError("corrupt %s: %s" % (name, error)) from None


def decode_posting(mm, offset, entries, node_count, name="postings segment"):
    """Materialize one term's :class:`~repro.ir.index.Posting` from the map.

    Node ids must rise strictly and stay below ``node_count``.
    """
    reader = ByteReader(mm, name, offset=offset)
    posting = Posting()
    previous = -1
    for _ in range(entries):
        node_id = reader.i32()
        if not previous < node_id < node_count:
            reader.fail("posting lists node %d out of order or range" % node_id)
        previous = node_id
        count = reader.u32()
        posting.add(node_id, [reader.u32() for _ in range(count)])
    return posting


# -- statistics segment --------------------------------------------------------

#: The ``None`` (any tag) side of a statistics row.
_ANY = -1


def write_stats(path, state):
    """Seal a :meth:`DocumentStatistics.state` export into ``stats.bin``.

    Counts only: ``counted_upto``, then per section ``u32 rows`` of ``i32
    upper tag id | i32 lower tag id | u64 count`` (-1 for any tag).  The
    size follows the tag pairs, never the node count.
    """
    writer = ByteWriter()
    writer.raw(STATS_MAGIC)
    writer.u32(FORMAT_VERSION)
    writer.u64(state["counted_upto"])
    for section in COUNTERS:
        rows = sorted(
            (_ANY if upper is None else upper, _ANY if lower is None else lower, count)
            for (upper, lower), count in state[section].items()
        )
        writer.u32(len(rows))
        for upper, lower, count in rows:
            writer.i32(upper)
            writer.i32(lower)
            writer.u64(count)
    _seal(writer, path)


def parse_stats(buffer, node_count, tag_count, name="statistics segment"):
    """Decode a (CRC-checked) statistics segment into a state export.

    The snapshot must count exactly the ``node_count`` sealed nodes, and
    every row must name one of the segment's ``tag_count`` tags.
    """
    try:
        reader = ByteReader(buffer, name, offset=len(STATS_MAGIC))
        version = reader.u32()
        if version != FORMAT_VERSION:
            reader.fail("unsupported statistics format version %d" % version)
        counted_upto = reader.u64()
        if counted_upto != node_count:
            reader.fail(
                "statistics count %d nodes, the segment holds %d"
                % (counted_upto, node_count)
            )
        state = {"counted_upto": counted_upto}
        for section in COUNTERS:
            counts = {}
            for _ in range(reader.u32()):
                key = (reader.i32(), reader.i32())
                if not all(_ANY <= tag_id < tag_count for tag_id in key):
                    reader.fail("statistics row names an unknown tag: %r" % (key,))
                key = tuple(None if tag_id == _ANY else tag_id for tag_id in key)
                counts[key] = reader.u64()
            state[section] = counts
        if reader.offset != len(buffer) - 4:
            reader.fail("trailing bytes after the statistics")
        return state
    except CorruptStorageError:
        raise
    except Exception as error:
        raise CorruptStorageError("corrupt %s: %s" % (name, error)) from None


# -- manifest ------------------------------------------------------------------


def write_manifest(directory, data):
    """Atomically replace the corpus manifest (tmp + fsync + rename)."""
    final = os.path.join(str(directory), MANIFEST_NAME)
    tmp = final + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)
    fsync_directory(directory)


def read_manifest(directory):
    path = os.path.join(str(directory), MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise CorruptStorageError(
            "corrupt corpus at %s: cannot read manifest (%s)"
            % (directory, error)
        ) from None
    except ValueError as error:
        raise CorruptStorageError(
            "corrupt %s: invalid manifest JSON (%s)" % (path, error)
        ) from None
    for field in ("format", "generation", "segment", "version"):
        if field not in data:
            raise CorruptStorageError(
                "corrupt %s: manifest missing %r" % (path, field)
            )
    if data["format"] != FORMAT_VERSION:
        raise CorruptStorageError(
            "corrupt %s: unsupported corpus format %r" % (path, data["format"])
        )
    return data


def fsync_directory(directory):
    """Flush a directory entry (after create/rename of its children)."""
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- write-ahead log -----------------------------------------------------------


class WriteAheadLog:
    """Append log of document-fragment records with CRC'd framing.

    Layout: ``FXWAL001 | u64 generation`` then zero or more records of
    ``FXR1 | u32 length | u32 crc32(payload) | payload``.  ``append`` is
    durable (flush + fsync) before it returns; :meth:`recover` scans the
    longest valid record prefix, *truncates* any torn or corrupt tail in
    place, and discards every record whose header generation disagrees
    with the manifest (records that an interrupted compaction already
    folded into a newer segment).
    """

    def __init__(self, path, generation):
        self._path = str(path)
        self._generation = generation
        self._handle = None

    @property
    def path(self):
        return self._path

    @property
    def generation(self):
        return self._generation

    def recover(self, expected_generation):
        """Replay: return valid payloads, truncate the invalid tail.

        A missing file, a bad header, or a generation mismatch yields no
        records and rewrites a fresh header — the sealed segment is the
        source of truth for everything before the log.
        """
        self._generation = expected_generation
        started = perf_counter()
        try:
            with open(self._path, "rb") as handle:
                data = handle.read()
        except OSError:
            data = b""
        payloads = []
        valid_upto = 0
        if (
            len(data) >= WAL_HEADER_LEN
            and data[:8] == WAL_MAGIC
            and _U64.unpack_from(data, 8)[0] == expected_generation
        ):
            valid_upto = WAL_HEADER_LEN
            offset = WAL_HEADER_LEN
            while offset + _RECORD_HEADER.size <= len(data):
                magic, length, crc = _RECORD_HEADER.unpack_from(data, offset)
                if magic != RECORD_MAGIC:
                    break
                start = offset + _RECORD_HEADER.size
                end = start + length
                if end > len(data):
                    break  # torn write: record body never made it to disk
                payload = data[start:end]
                if zlib.crc32(payload) != crc:
                    REGISTRY.inc("wal.crc_failures")
                    break
                payloads.append(payload)
                offset = end
                valid_upto = end
        truncated = len(data) - valid_upto if valid_upto < len(data) else 0
        if valid_upto == 0:
            self._rewrite_header()
        elif truncated:
            with open(self._path, "r+b") as handle:
                handle.truncate(valid_upto)
                handle.flush()
                os.fsync(handle.fileno())
        if REGISTRY.enabled:
            deltas = {"wal.replays": 1, "wal.replay_records": len(payloads)}
            if truncated:
                deltas["wal.torn_tail_truncations"] = 1
                deltas["wal.truncated_bytes"] = truncated
            REGISTRY.inc_many(deltas)
            REGISTRY.observe("wal.replay_seconds", perf_counter() - started)
        return payloads

    def _rewrite_header(self):
        with open(self._path, "wb") as handle:
            handle.write(WAL_MAGIC)
            handle.write(_U64.pack(self._generation))
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, payload):
        """Durably append one record; returns its byte offset."""
        observing = REGISTRY.enabled
        started = perf_counter() if observing else 0.0
        handle = self._ensure_open()
        offset = handle.tell()
        handle.write(
            _RECORD_HEADER.pack(RECORD_MAGIC, len(payload), zlib.crc32(payload))
        )
        handle.write(payload)
        handle.flush()
        fsync_started = perf_counter() if observing else 0.0
        os.fsync(handle.fileno())
        if observing:
            done = perf_counter()
            size = _RECORD_HEADER.size + len(payload)
            REGISTRY.inc_many({"wal.appends": 1, "wal.append_bytes": size})
            REGISTRY.observe("wal.append_seconds", done - started)
            REGISTRY.observe("wal.fsync_seconds", done - fsync_started)
        return offset

    def reset(self, generation):
        """Start a new empty log for ``generation`` (after compaction)."""
        self.close()
        self._generation = generation
        self._rewrite_header()

    def _ensure_open(self):
        if self._handle is None:
            self._handle = open(self._path, "ab")
        return self._handle

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self):
        return "WriteAheadLog(%r, generation=%d)" % (
            self._path,
            self._generation,
        )
