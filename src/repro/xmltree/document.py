"""Document: a columnar, array-backed store of XML element nodes.

The storage layer is split in two:

- :class:`ColumnarStore` holds the whole node table as parallel columns
  (typed arrays for the structural fields, a list for direct text, a sparse
  attribute table, and an interned tag dictionary).  This is the flattened
  node-table layout of the structural-join literature: per-node memory is a
  handful of machine integers instead of a Python object, and appending a
  whole parsed fragment is a column splice, not a re-parse.
- :class:`Document` is the navigation facade over one store.  It hands out
  :class:`~repro.xmltree.node.XMLNode` *flyweight views* (created lazily,
  cached per node id so identity semantics hold) plus the inverted *tag
  index* mapping each tag to the id-sorted list of nodes carrying it.  Tag
  lists are the inputs to structural joins; being naturally sorted by
  region start is what makes the stack-based join a single merge pass.

Documents built by the parser/builder are immutable; a document owned by a
:class:`~repro.collection.Corpus` grows in place through
:meth:`Document.append_fragment`, which splices another document's columns
under a chosen parent in O(new nodes).
"""

from __future__ import annotations

import bisect
from array import array

from repro.errors import FleXPathError
from repro.xmltree.node import XMLNode


class TagDictionary:
    """Interned tag names: a bidirectional ``name <-> small int`` mapping.

    Ids are assigned densely in first-appearance order, which makes the
    dictionary itself serializable as a plain list of names (dump format
    v2 relies on this).
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
    - ``levels``     depth (root is 0),
    - ``ends``       region end (exclusive; ``end - id`` is subtree size),
    - ``texts``      direct text (whitespace-normalized, often ``""``),
    - ``attribute_table``  sparse ``node_id -> dict`` (most nodes bare),
    - ``tag_node_ids``     ``tag_id -> array of node ids`` (the tag index,
      id-sorted by construction).

    The structural columns are ``array('i')`` — 16 bytes per node total
    versus a few hundred for an object-per-node model.
    """

    __slots__ = (
        "tags",
        "tag_ids",
        "parent_ids",
        "levels",
        "ends",
        "texts",
        "attribute_table",
        "tag_node_ids",
    )

    def __init__(self):
        self.tags = TagDictionary()
        self.tag_ids = array("i")
        self.parent_ids = array("i")
        self.levels = array("i")
        self.ends = array("i")
        self.texts = []
        self.attribute_table = {}
        self.tag_node_ids = {}

    def __len__(self):
        return len(self.tag_ids)

    # -- row construction ----------------------------------------------------

    def append(self, tag, parent_id, level, attributes=None):
        """Append one node; returns its id. ``end`` starts as a leaf's."""
        node_id = len(self.tag_ids)
        tag_id = self.tags.intern(tag)
        self.tag_ids.append(tag_id)
        self.parent_ids.append(parent_id)
        self.levels.append(level)
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

    def extend_from(self, other, parent_id=-1):
        """Splice all of ``other``'s nodes in as a subtree under ``parent_id``.

        Runs in O(len(other)): every column is an offset-shifted bulk
        extend, tag ids are remapped through the interned dictionary, and
        region ends along the parent chain grow to cover the new subtree.
        Returns the new id of ``other``'s root.
        """
        if other is self:
            raise FleXPathError("cannot splice a store into itself")
        base = len(self)
        level_shift = self.levels[parent_id] + 1 if parent_id >= 0 else 0
        tag_map = [self.tags.intern(name) for name in other.tags.names()]
        self.tag_ids.extend(tag_map[tag_id] for tag_id in other.tag_ids)
        self.parent_ids.extend(
            (pid + base if pid >= 0 else parent_id) for pid in other.parent_ids
        )
        if level_shift:
            self.levels.extend(level + level_shift for level in other.levels)
        else:
            self.levels.extend(other.levels)
        self.ends.extend(end + base for end in other.ends)
        self.texts.extend(other.texts)
        for node_id, attrs in other.attribute_table.items():
            self.attribute_table[base + node_id] = dict(attrs)
        for tag_id, ids in other.tag_node_ids.items():
            target = self.tag_node_ids.setdefault(tag_map[tag_id], array("i"))
            target.extend(node_id + base for node_id in ids)
        new_length = len(self.tag_ids)
        ancestor = parent_id
        while ancestor >= 0:
            if self.ends[ancestor] < new_length:
                self.ends[ancestor] = new_length
            ancestor = self.parent_ids[ancestor]
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
            for array_ in (self.tag_ids, self.parent_ids, self.levels, self.ends)
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


def _store_from_nodes(nodes):
    """Build a store from node-like objects (legacy construction path)."""
    store = ColumnarStore()
    for node in nodes:
        node_id = store.append(
            node.tag,
            node.parent_id,
            node.level,
            getattr(node, "attributes", None) or None,
        )
        store.set_text(node_id, node.text)
        store.close(node_id, node.end)
    return store


class Document:
    """An ordered, region-encoded XML document over a :class:`ColumnarStore`.

    Instances are built by :class:`~repro.xmltree.builder.TreeBuilder`, by
    :func:`~repro.xmltree.parser.parse`, or by
    :func:`~repro.xmltree.storage.load_document`; direct construction is
    internal.  Node views are lazy and cached, so ``doc.node(i)`` always
    returns the same object for the same id.
    """

    def __init__(self, store, tag_index=None):
        if not isinstance(store, ColumnarStore):
            # Legacy signature: a list of node-like objects (+ ignored index).
            store = _store_from_nodes(store)
        self._store = store
        self._views = [None] * len(store)
        self._tag_views = {}

    # -- basic accessors ---------------------------------------------------

    def __len__(self):
        return len(self._views)

    @property
    def store(self):
        """The underlying :class:`ColumnarStore` (shared, treat as owned)."""
        return self._store

    def node(self, node_id):
        """Return the (cached flyweight) node with the given id."""
        if node_id < 0:
            node_id += len(self._views)
        view = self._views[node_id]
        if view is None:
            view = self._views[node_id] = XMLNode(self._store, node_id)
        return view

    @property
    def root(self):
        """Return the root node."""
        if not self._views:
            raise FleXPathError("document is empty")
        return self.node(0)

    def nodes(self):
        """Iterate over all nodes in document (pre-)order."""
        return (self.node(node_id) for node_id in range(len(self._views)))

    @property
    def tags(self):
        """Return the set of tags present in the document."""
        return set(self._store.tags)

    def nodes_with_tag(self, tag):
        """Return the id-sorted list of nodes with the given tag.

        The returned list is shared with the index; callers must not
        mutate it.
        """
        views = self._tag_views.get(tag)
        if views is None:
            views = [self.node(i) for i in self._store.node_ids_with_tag(tag)]
            self._tag_views[tag] = views
        return views

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

    def is_parent(self, ancestor, descendant):
        """Return True if ``ancestor`` is the parent of ``descendant``."""
        return ancestor.is_parent_of(descendant)

    def is_ancestor(self, ancestor, descendant):
        """Return True if ``ancestor`` is a proper ancestor of ``descendant``."""
        return ancestor.is_ancestor_of(descendant)

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

    def append_fragment(self, fragment, parent_id=0):
        """Splice another document's columns in as a subtree of ``parent_id``.

        O(len(fragment)); no re-parse, no node copying.  Region ends along
        the parent chain (and any already-materialized views of those
        ancestors) are updated in place, and cached tag lists are extended
        incrementally (new ids exceed all old ids, so they stay id-sorted).
        Returns the new node id of the fragment root.
        """
        if fragment is self:
            raise FleXPathError("cannot append a document to itself")
        base = self._store.extend_from(fragment._store, parent_id)
        self._views.extend([None] * (len(self._store) - base))
        ancestor = parent_id
        while ancestor >= 0:
            view = self._views[ancestor]
            if view is not None:
                view.end = self._store.ends[ancestor]
            ancestor = self._store.parent_ids[ancestor]
        for tag, views in self._tag_views.items():
            ids = self._store.node_ids_with_tag(tag)
            for node_id in ids[len(views):]:
                views.append(self.node(node_id))
        return base

    # -- introspection -----------------------------------------------------

    def stats_summary(self):
        """Return a small dict describing the document (for logging/tests)."""
        store = self._store
        return {
            "nodes": len(store),
            "tags": len(store.tags),
            "depth": max(store.levels, default=0),
            "text_bytes": sum(len(text) for text in store.texts),
        }

    def __repr__(self):
        return "Document(nodes=%d, tags=%d)" % (
            len(self._store),
            len(self._store.tags),
        )
