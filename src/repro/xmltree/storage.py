"""The node-table codec: the one place a document becomes bytes and back.

A document is a pre-order node table (DESIGN §5): an interned tag
dictionary, three ``int32`` columns (tag id, parent id, region end), a
text column and a sparse attribute table.  Nothing the columns imply is
stored: depth and the tag index are derived on load.  Every persistent
form of that table goes through this module:

- :func:`encode_fragment` / :func:`decode_fragment` — the *fragment*
  payload, which is also the write-ahead log's record payload::

      text name | u32 tag-count | text tag × tag-count | u32 node-count |
      node table

- :func:`write_node_table` — the part a sealed column segment shares with
  the fragment: the three columns as raw little-endian ``int32`` arrays, the
  text table (``u64`` offset count, ``u64`` offsets, ``u64`` blob length,
  one UTF-8 blob) and the attribute table (``u32`` rows of ``i32`` node id,
  ``u32`` pair count, key/value texts), where *text* is a ``u32`` byte
  length plus UTF-8;
- :func:`dump_document` / :func:`load_document` — a dump file is the
  fragment payload in the envelope sealed segments use: 8-byte magic,
  payload, trailing CRC32 of both (:func:`check_envelope`);
- :func:`read_document` — the one reader of a document file: a dump when
  it starts with the magic, XML otherwise.

Decoders trust nothing: :func:`validate_node_table` refuses any table whose
region encoding contradicts its parent column, and every failure raises
:class:`~repro.errors.CorruptStorageError` naming the source and the byte
offset.  The format is an internal convenience, not an interchange format
— use :mod:`repro.xmltree.serialize` for XML output.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array

from repro.errors import CorruptStorageError
from repro.xmltree.document import ColumnarStore, Document, TagDictionary
from repro.xmltree.parser import parse_file

DUMP_MAGIC = b"FXDOC002"
#: What every dump's magic starts with, whatever its version.
_DUMP_FAMILY = b"FXDOC"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I32 = struct.Struct("<i")
_ROW = struct.Struct("<iI")  # attribute row: node id, pair count

_BIG_ENDIAN = sys.byteorder == "big"


class ByteWriter:
    """Accumulates one payload's bytes (``data``), little-endian."""

    __slots__ = ("data",)

    def __init__(self):
        self.data = bytearray()

    def raw(self, data):
        self.data += data

    def u32(self, value):
        self.data += _U32.pack(value)

    def u64(self, value):
        self.data += _U64.pack(value)

    def i32(self, value):
        self.data += _I32.pack(value)

    def text(self, value):
        data = value.encode("utf-8")
        self.u32(len(data))
        self.raw(data)

    def int_array(self, values):
        data = values if isinstance(values, array) else array("i", values)
        if _BIG_ENDIAN:
            data = array("i", data)
            data.byteswap()
        self.raw(data.tobytes())


class ByteReader:
    """Sequential cursor over a buffer; short reads raise CorruptStorageError."""

    __slots__ = ("buffer", "offset", "name", "size")

    def __init__(self, buffer, name, offset=0):
        self.buffer = buffer
        self.offset = offset
        self.name = name
        self.size = len(buffer)

    def fail(self, message):
        raise CorruptStorageError(
            "corrupt %s: %s (at byte %d)" % (self.name, message, self.offset)
        )

    def take(self, count):
        """Advance past ``count`` bytes; returns where they start."""
        start = self.offset
        end = start + count
        if end > self.size:
            self.fail("unexpected end of file")
        self.offset = end
        return start

    def u32(self):
        return _U32.unpack_from(self.buffer, self.take(4))[0]

    def u64(self):
        return _U64.unpack_from(self.buffer, self.take(8))[0]

    def i32(self):
        return _I32.unpack_from(self.buffer, self.take(4))[0]

    def text(self):
        # One call per text on the hot open path: the u32 length and the
        # bytes it announces, bounds-checked together.
        start = self.offset + 4
        if start > self.size:
            self.fail("unexpected end of file")
        end = start + _U32.unpack_from(self.buffer, start - 4)[0]
        if end > self.size:
            self.fail("unexpected end of file")
        self.offset = end
        try:
            return str(self.buffer[start:end], "utf-8")
        except UnicodeDecodeError:
            self.fail("undecodable text")

    def int_array(self, count):
        data = array("i")
        data.frombytes(self.buffer[self.take(4 * count) : self.offset])
        if _BIG_ENDIAN:
            data.byteswap()
        return data


def check_envelope(buffer, magic, name):
    """Check ``magic | payload | crc32``; returns the payload end offset."""
    if len(buffer) < len(magic) + 4:
        raise CorruptStorageError(
            "corrupt %s: file too short (%d bytes)" % (name, len(buffer))
        )
    if bytes(buffer[: len(magic)]) != magic:
        raise CorruptStorageError(
            "corrupt %s: bad magic %r" % (name, bytes(buffer[: len(magic)]))
        )
    payload_end = len(buffer) - 4
    view = memoryview(buffer)[:payload_end]
    crc = zlib.crc32(view)
    view.release()
    (stored,) = _U32.unpack_from(buffer, payload_end)
    if crc != stored:
        raise CorruptStorageError(
            "corrupt %s: CRC mismatch (stored %08x, computed %08x)"
            % (name, stored, crc)
        )
    return payload_end


# -- the node table -----------------------------------------------------------


def write_node_table(writer, store):
    """The three columns, the text table and the attribute table."""
    count = len(store)
    writer.int_array(store.tag_ids)
    writer.int_array(store.parent_ids)
    writer.int_array(store.ends)
    blobs = [text.encode("utf-8") for text in store.texts]
    writer.u64(count + 1)
    offset = 0
    for blob in blobs:
        writer.u64(offset)
        offset += len(blob)
    writer.u64(offset)
    writer.u64(offset)  # blob length
    for blob in blobs:
        writer.raw(blob)
    attribute_table = store.attribute_table
    writer.u32(len(attribute_table))
    for node_id in sorted(attribute_table):
        attributes = attribute_table[node_id]
        writer.i32(node_id)
        writer.u32(len(attributes))
        for key in sorted(attributes):
            writer.text(key)
            writer.text(attributes[key])


def read_tags(reader, tag_count):
    """The tag dictionary; a repeated name would hide a tag id's nodes."""
    names = [reader.text() for _ in range(tag_count)]
    if len(set(names)) != tag_count:
        reader.fail("duplicate tag name")
    return TagDictionary(names)


def read_columns_into(store, reader, count):
    """Read the three ``int32`` columns into ``store``."""
    store.tag_ids = reader.int_array(count)
    store.parent_ids = reader.int_array(count)
    store.ends = reader.int_array(count)


def read_text_table(reader, count):
    """Check a text table; returns ``(offsets, offsets_at, blob_at)``.

    ``offsets`` has ``count + 1`` entries rising from 0 to the blob length,
    so text ``i`` is blob bytes ``offsets[i]:offsets[i + 1]``.
    """
    if reader.u64() != count + 1:
        reader.fail("text offsets disagree with node count")
    offsets_at = reader.take(8 * (count + 1))
    offsets = struct.unpack_from("<%dQ" % (count + 1), reader.buffer, offsets_at)
    blob_len = reader.u64()
    blob_at = reader.take(blob_len)
    if offsets[0] or offsets[-1] != blob_len or sorted(offsets) != list(offsets):
        reader.fail("text offset table is inconsistent")
    return offsets, offsets_at, blob_at


def read_attributes(reader, count):
    """The attribute table: rows for distinct nodes, in ascending id order."""
    table = {}
    previous = -1
    text = reader.text
    for _ in range(reader.u32()):
        node_id, pairs = _ROW.unpack_from(reader.buffer, reader.take(8))
        if not previous < node_id < count:
            reader.fail("attribute row for node %d out of order" % node_id)
        previous = node_id
        attributes = table[node_id] = {}
        for _ in range(pairs):
            key = text()
            attributes[key] = text()
        if len(attributes) != pairs:
            reader.fail("duplicate attribute name on node %d" % node_id)
    return table


def validate_node_table(store, reader):
    """Refuse a table that is not one pre-order region-encoded tree.

    Checks that node 0 is the only root (parent -1, end = count), every
    other parent is an earlier node, every end lies in ``(id, parent's
    end]``, and every tag id is known.  Nesting puts each subtree inside
    its region, so ``Σ(end - id) == Σ(depth + 1)``, with each depth one
    more than its parent's, holds only when every region is exactly its
    subtree.  Returns the tag index rebuilt from the tag column.
    """
    count = len(store)
    if not count:
        reader.fail("empty node table")
    # Plain-list copies: indexing a list hands back its ints, an array's
    # indexing boxes a new one each time.
    tag_ids, parent_ids, ends = (
        column.tolist() for column in (store.tag_ids, store.parent_ids, store.ends)
    )
    if parent_ids[0] != -1 or ends[0] != count:
        reader.fail("node 0 is not the root of the table")
    depths = [0] * count
    index = [[] for _ in range(len(store.tags))]
    # Keyed by tag id, so an unknown (even negative) id is a KeyError.
    appends = dict(enumerate(ids.append for ids in index))
    try:
        appends[tag_ids[0]](0)
        for node_id in range(1, count):
            parent_id = parent_ids[node_id]
            if not 0 <= parent_id < node_id:
                reader.fail("node %d has impossible parent %d" % (node_id, parent_id))
            if not node_id < ends[node_id] <= ends[parent_id]:
                reader.fail(
                    "node %d has region end %d outside its parent's"
                    % (node_id, ends[node_id])
                )
            depths[node_id] = depths[parent_id] + 1
            appends[tag_ids[node_id]](node_id)
    except KeyError as error:
        reader.fail("unknown tag id %s" % error)
    if sum(ends) - count * (count - 1) // 2 != sum(depths) + count:
        reader.fail("region ends disagree with the parent column")
    return {tag_id: array("i", ids) for tag_id, ids in enumerate(index) if ids}


# -- fragments and dump files -------------------------------------------------


def encode_fragment(document, name):
    """One document + its corpus name as a fragment payload (WAL record)."""
    store = document.store
    writer = ByteWriter()
    writer.text(name)
    tags = store.tags.names()
    writer.u32(len(tags))
    for tag in tags:
        writer.text(tag)
    writer.u32(len(store))
    write_node_table(writer, store)
    return bytes(writer.data)


def decode_fragment(payload, name="wal record"):
    """Rebuild ``(document, name)`` from :func:`encode_fragment` output."""
    reader = ByteReader(payload, name)
    doc_name = reader.text()
    store = ColumnarStore()
    store.tags = read_tags(reader, reader.u32())
    count = reader.u32()
    read_columns_into(store, reader, count)
    offsets, _offsets_at, blob_at = read_text_table(reader, count)
    blob = bytes(payload[blob_at : reader.offset])
    try:
        store.texts = [
            blob[start:end].decode("utf-8")
            for start, end in zip(offsets, offsets[1:])
        ]
    except UnicodeDecodeError:
        reader.fail("undecodable text payload")
    store.attribute_table = read_attributes(reader, count)
    if reader.offset != len(payload):
        reader.fail("trailing bytes after the node table")
    store.tag_node_ids = validate_node_table(store, reader)
    return Document(store), doc_name


def dump_document(document, path):
    """Write ``document`` to ``path``: magic, fragment payload, CRC32."""
    data = DUMP_MAGIC + encode_fragment(document, "")
    with open(path, "wb") as handle:
        handle.write(data + _U32.pack(zlib.crc32(data)))


def load_document(path):
    """Load a document written by :func:`dump_document`."""
    name = str(path)
    with open(path, "rb") as handle:
        data = handle.read()
    payload_end = check_envelope(data, DUMP_MAGIC, name)
    payload = memoryview(data)[len(DUMP_MAGIC) : payload_end]
    return decode_fragment(payload, name)[0]


def read_document(path):
    """Read one document file: a dump if it starts with :data:`DUMP_MAGIC`,
    XML otherwise.  A dump of a retired format (``FXDOC`` and another
    version) is refused, not handed to the XML parser."""
    with open(path, "rb") as handle:
        magic = handle.read(len(DUMP_MAGIC))
    if magic == DUMP_MAGIC:
        return load_document(path)
    if magic.startswith(_DUMP_FAMILY):
        raise CorruptStorageError(
            "%s is a dump in the retired format %r (this build reads %r);"
            " re-dump from the XML" % (path, magic, DUMP_MAGIC)
        )
    return parse_file(path)
