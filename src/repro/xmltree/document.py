"""Document: a columnar, array-backed store of XML element nodes.

The storage layer is split in two:

- :class:`ColumnarStore` holds the whole node table as parallel columns
  (three typed arrays for the structure, a list for direct text, a sparse
  attribute table, and an interned tag dictionary).  This is the flattened
  node-table layout of the structural-join literature: per-node memory is a
  handful of machine integers instead of a Python object, and appending a
  whole parsed fragment is a column splice, not a re-parse.  Depth is not
  stored: it is the length of a node's parent chain.
- :class:`Document` is the navigation facade over one store.  It hands out
  :class:`~repro.xmltree.node.XMLNode` views (made on request, equal when
  they name the same row) plus the inverted *tag index* mapping each tag
  to the id-sorted nodes carrying it.  Tag lists are the inputs to
  structural joins; being naturally sorted by region start is what makes
  the stack-based join a single merge pass.

Documents built by the parser/builder are immutable; a document owned by a
:class:`~repro.collection.Corpus` grows in place through
:meth:`Document.append_fragment`, which splices another document's columns
as the root's last subtree in O(new nodes).
"""

from __future__ import annotations

import bisect
from array import array

from repro.errors import FleXPathError
from repro.xmltree.node import XMLNode


class TagDictionary:
    """Interned tag names: a bidirectional ``name <-> small int`` mapping.

    Ids are assigned densely in first-appearance order, which makes the
    dictionary itself serializable as a plain list of names (the node-table
    codec in :mod:`repro.xmltree.storage` relies on this).
    """

    __slots__ = ("_names", "_ids")

    def __init__(self, names=()):
        self._names = list(names)
        self._ids = {name: index for index, name in enumerate(self._names)}

    def intern(self, name):
        """Return the id for ``name``, assigning a new one if unseen."""
        tag_id = self._ids.get(name)
        if tag_id is None:
            tag_id = len(self._names)
            self._ids[name] = tag_id
            self._names.append(name)
        return tag_id

    def id_of(self, name):
        """Return the id for ``name``, or -1 if the tag is unknown."""
        return self._ids.get(name, -1)

    def name_of(self, tag_id):
        """Return the tag name for an id."""
        return self._names[tag_id]

    def names(self):
        """Return the names in id order (id ``i`` is ``names()[i]``)."""
        return list(self._names)

    def __len__(self):
        return len(self._names)

    def __contains__(self, name):
        return name in self._ids

    def __iter__(self):
        return iter(self._names)


_EMPTY_IDS = array("i")


class ColumnarStore:
    """The flattened node table: parallel per-node columns.

    Columns (all indexed by node id, which equals the pre-order rank and
    the region ``start``):

    - ``tag_ids``    interned tag id (:class:`TagDictionary` ``tags``),
    - ``parent_ids`` parent node id, -1 for a root,
    - ``ends``       region end (exclusive; ``end - id`` is subtree size),
    - ``texts``      direct text (whitespace-normalized, often ``""``),
    - ``attribute_table``  sparse ``node_id -> dict`` (most nodes bare),
    - ``tag_node_ids``     ``tag_id -> array of node ids`` (the tag index,
      id-sorted by construction).

    The structural columns are ``array('i')`` — 12 bytes per node total
    versus a few hundred for an object-per-node model.  The tag index is
    the one derived structure kept: it is rebuilt from ``tag_ids`` on every
    load, never stored.
    """

    __slots__ = (
        "tags",
        "tag_ids",
        "parent_ids",
        "ends",
        "texts",
        "attribute_table",
        "tag_node_ids",
    )

    def __init__(self):
        self.tags = TagDictionary()
        self.tag_ids = array("i")
        self.parent_ids = array("i")
        self.ends = array("i")
        self.texts = []
        self.attribute_table = {}
        self.tag_node_ids = {}

    def __len__(self):
        return len(self.tag_ids)

    # -- row construction ----------------------------------------------------

    def append(self, tag, parent_id, attributes=None):
        """Append one node; returns its id. ``end`` starts as a leaf's."""
        node_id = len(self.tag_ids)
        tag_id = self.tags.intern(tag)
        self.tag_ids.append(tag_id)
        self.parent_ids.append(parent_id)
        self.ends.append(node_id + 1)
        self.texts.append("")
        if attributes:
            self.attribute_table[node_id] = dict(attributes)
        ids = self.tag_node_ids.get(tag_id)
        if ids is None:
            ids = self.tag_node_ids[tag_id] = array("i")
        ids.append(node_id)
        return node_id

    def close(self, node_id, end):
        """Record the region end of a node once its subtree is complete."""
        self.ends[node_id] = end

    def set_text(self, node_id, text):
        self.texts[node_id] = text

    # -- column access -------------------------------------------------------

    def tag_of(self, node_id):
        return self.tags.name_of(self.tag_ids[node_id])

    def node_ids_with_tag(self, tag):
        """Id-sorted node ids carrying ``tag`` (shared array; don't mutate)."""
        tag_id = self.tags.id_of(tag)
        if tag_id < 0:
            return _EMPTY_IDS
        return self.tag_node_ids.get(tag_id, _EMPTY_IDS)

    # -- the append operation ------------------------------------------------

    def extend_from(self, other):
        """Splice all of ``other``'s nodes in as a last subtree of the root.

        Runs in O(len(other)): every column is an offset-shifted bulk
        extend, tag ids are remapped through the interned dictionary, and
        the root's region end grows to cover the new subtree.  Returns the
        new id of ``other``'s root.
        """
        if other is self:
            raise FleXPathError("cannot splice a store into itself")
        base = len(self)
        tag_map = [self.tags.intern(name) for name in other.tags.names()]
        self.tag_ids.extend(tag_map[tag_id] for tag_id in other.tag_ids)
        self.parent_ids.extend(
            (pid + base if pid >= 0 else 0) for pid in other.parent_ids
        )
        self.ends.extend(end + base for end in other.ends)
        self.texts.extend(other.texts)
        for node_id, attrs in other.attribute_table.items():
            self.attribute_table[base + node_id] = dict(attrs)
        for tag_id, ids in other.tag_node_ids.items():
            target = self.tag_node_ids.setdefault(tag_map[tag_id], array("i"))
            target.extend(node_id + base for node_id in ids)
        self.ends[0] = len(self.tag_ids)
        return base

    # -- introspection -------------------------------------------------------

    def footprint_bytes(self):
        """Approximate resident size of the node table in bytes.

        Counts the structural arrays, the container overhead of the text
        column and attribute table, and the tag dictionary/index — not the
        text payload strings themselves, which any storage model shares.
        """
        import sys

        total = sum(
            array_.buffer_info()[1] * array_.itemsize
            for array_ in (self.tag_ids, self.parent_ids, self.ends)
        )
        total += sys.getsizeof(self.texts)
        total += sys.getsizeof(self.attribute_table)
        for attrs in self.attribute_table.values():
            total += sys.getsizeof(attrs)
            total += sum(
                sys.getsizeof(key) + sys.getsizeof(value)
                for key, value in attrs.items()
            )
        total += sys.getsizeof(self.tag_node_ids)
        for ids in self.tag_node_ids.values():
            total += ids.buffer_info()[1] * ids.itemsize
        total += sum(sys.getsizeof(name) for name in self.tags)
        return total


class Document:
    """An ordered, region-encoded XML document over a :class:`ColumnarStore`.

    Instances are built by :class:`~repro.xmltree.builder.TreeBuilder`, by
    :func:`~repro.xmltree.parser.parse`, or by
    :func:`~repro.xmltree.storage.load_document`; direct construction is
    internal.  The document keeps nothing per node beside its store: each
    ``doc.node(i)`` is a new view, equal to (and hashing like) every other
    view of row ``i``.
    """

    def __init__(self, store):
        self._store = store

    # -- basic accessors ---------------------------------------------------

    def __len__(self):
        return len(self._store)

    @property
    def store(self):
        """The underlying :class:`ColumnarStore` (shared, treat as owned)."""
        return self._store

    def node(self, node_id):
        """Return a view of the node with the given id."""
        count = len(self._store)
        if node_id < 0:
            node_id += count
        if not 0 <= node_id < count:
            raise IndexError("node id out of range")
        return XMLNode(self._store, node_id)

    @property
    def root(self):
        """Return the root node."""
        if not len(self._store):
            raise FleXPathError("document is empty")
        return self.node(0)

    def nodes(self):
        """Iterate over all nodes in document (pre-)order."""
        return (self.node(node_id) for node_id in range(len(self._store)))

    @property
    def tags(self):
        """Return the set of tags present in the document."""
        return set(self._store.tags)

    def nodes_with_tag(self, tag):
        """Return the id-sorted list of nodes with the given tag."""
        return [self.node(i) for i in self._store.node_ids_with_tag(tag)]

    def count(self, tag):
        """Return the number of elements with the given tag."""
        return len(self._store.node_ids_with_tag(tag))

    # -- navigation --------------------------------------------------------

    def parent(self, node):
        """Return the parent node, or None for the root."""
        if node.parent_id < 0:
            return None
        return self.node(node.parent_id)

    def children(self, node):
        """Return the list of child nodes in document order.

        Derived from the pre-order layout: the first child directly follows
        the node; each next sibling starts where the previous subtree ends.
        """
        ends = self._store.ends
        result = []
        child_id = node.node_id + 1
        end = ends[node.node_id]
        while child_id < end:
            result.append(self.node(child_id))
            child_id = ends[child_id]
        return result

    def ancestors(self, node):
        """Yield proper ancestors from parent up to the root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def descendants(self, node):
        """Yield proper descendants in document order."""
        for node_id in range(node.start + 1, self._store.ends[node.node_id]):
            yield self.node(node_id)

    def subtree_nodes(self, node):
        """Yield the node itself followed by its descendants."""
        for node_id in range(node.start, self._store.ends[node.node_id]):
            yield self.node(node_id)

    def path_to_root(self, node):
        """Return the list of tags from this node up to the root."""
        tags = [node.tag]
        tags.extend(ancestor.tag for ancestor in self.ancestors(node))
        return tags

    def lowest_common_ancestor(self, first, second):
        """Return the lowest node whose region covers both arguments."""
        low, high = (first, second) if first.start <= second.start else (second, first)
        if low.contains_region(high) or low.node_id == high.node_id:
            return low
        current = self.parent(low)
        while current is not None:
            if current.contains_region(high):
                return current
            current = self.parent(current)
        raise FleXPathError("nodes do not share a root")

    # -- text --------------------------------------------------------------

    def direct_text(self, node):
        """Return the text immediately inside the element."""
        return self._store.texts[node.node_id]

    def full_text(self, node):
        """Return the concatenated text of the whole subtree."""
        texts = self._store.texts
        end = self._store.ends[node.node_id]
        return " ".join(
            text for text in texts[node.start:end] if text
        )

    # -- structural predicates ---------------------------------------------

    def descendants_with_tag(self, node, tag):
        """Return descendants of ``node`` having ``tag``, in document order.

        Uses binary search over the id-sorted tag column, so the cost is
        O(log n + k) for k results.
        """
        ids = self._store.node_ids_with_tag(tag)
        if not ids:
            return []
        lo = bisect.bisect_right(ids, node.start)
        hi = bisect.bisect_left(ids, self._store.ends[node.node_id], lo=lo)
        return [self.node(node_id) for node_id in ids[lo:hi]]

    def descendant_ids_with_tag(self, node, tag):
        """Ids of descendants of ``node`` having ``tag`` (id-sorted).

        The pure-column form of :meth:`descendants_with_tag`: two binary
        searches over the tag index and one array slice — no node views
        are materialized.  Join kernels consume this directly.
        """
        ids = self._store.node_ids_with_tag(tag)
        if not ids:
            return _EMPTY_IDS
        lo = bisect.bisect_right(ids, node.start)
        hi = bisect.bisect_left(ids, self._store.ends[node.node_id], lo=lo)
        return ids[lo:hi]

    def child_ids_with_tag(self, node, tag):
        """Ids of children of ``node`` having ``tag`` (id-sorted).

        Filters the descendant id range through the ``parent_ids`` column —
        an exact test, and integer-only until the caller materializes.
        """
        ids = self._store.node_ids_with_tag(tag)
        if not ids:
            return _EMPTY_IDS
        lo = bisect.bisect_right(ids, node.start)
        hi = bisect.bisect_left(ids, self._store.ends[node.node_id], lo=lo)
        parent_ids = self._store.parent_ids
        target = node.node_id
        return [nid for nid in ids[lo:hi] if parent_ids[nid] == target]

    def children_with_tag(self, node, tag):
        """Return children of ``node`` having ``tag``, in document order."""
        return [self.node(nid) for nid in self.child_ids_with_tag(node, tag)]

    # -- growth (the Corpus append path) -------------------------------------

    def append_fragment(self, fragment):
        """Splice another document's columns in as the root's last subtree.

        O(len(fragment)); no re-parse, no node copying.  The root's region
        end grows in place, so every view of the root reads the new end.
        Returns the new node id of the fragment root.
        """
        if fragment is self:
            raise FleXPathError("cannot append a document to itself")
        return self._store.extend_from(fragment._store)

    # -- introspection -----------------------------------------------------

    def stats_summary(self):
        """Return a small dict describing the document (for logging/tests)."""
        store = self._store
        depths = [0] * len(store)
        parent_ids = store.parent_ids
        for node_id in range(1, len(store)):
            depths[node_id] = depths[parent_ids[node_id]] + 1
        return {
            "nodes": len(store),
            "tags": len(store.tags),
            "depth": max(depths, default=0),
            "text_bytes": sum(len(text) for text in store.texts),
        }

    def __repr__(self):
        return "Document(nodes=%d, tags=%d)" % (
            len(self._store),
            len(self._store.tags),
        )
