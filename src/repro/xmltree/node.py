"""XML node model with region encoding.

Every node in a :class:`~repro.xmltree.document.Document` carries a *region
encoding* ``(start, end, level)`` assigned during a single pre-order
traversal:

- ``start`` is the node's pre-order rank (and also its node id),
- ``end`` is one past the largest ``start`` in the node's subtree,
- ``level`` is the depth of the node (the root has level 0).

Region encoding makes the two structural predicates of tree pattern queries
O(1) to test:

- ``ad(a, d)``  iff  ``a.start < d.start and d.end <= a.end``
- ``pc(a, d)``  iff  ``ad(a, d) and d.level == a.level + 1``

This is the encoding used by the stack-based structural join of
Al-Khalifa et al. (ICDE 2002), which the FleXPath paper builds on.  The
store keeps ``start`` (the id) and ``end``, and a parent column instead of
``level``: ``pc(a, d)`` is ``d.parent_id == a.start``, and ``level`` is
the length of the parent chain, walked when asked for.

An ``XMLNode`` is a *view* of one row of a
:class:`~repro.xmltree.document.ColumnarStore`: it holds only the store and
the node id and reads every field from the columns, so a view taken before
a corpus grows reads the grown root region after it.  Two views are equal,
and hash alike, when they name the same row of the same store.
"""

from __future__ import annotations

_EMPTY_ATTRIBUTES = {}


class XMLNode:
    """A view of a single element node.

    Attributes:
        node_id: pre-order rank; equal to ``start``.
        start: region start (inclusive).
        end: region end (exclusive); ``end - start`` is the subtree size.
        level: depth from the root (root is 0).
        tag: element tag name.
        text: text directly inside this element (concatenated over all its
            direct text children, whitespace-normalized).
        parent_id: node id of the parent, or ``-1`` for the root.
        attributes: dict of XML attributes (may be empty; treat as
            read-only — it is backed by the store's attribute table).
        child_ids: ids of the direct children in document order (computed
            from the pre-order layout, not stored).
    """

    __slots__ = ("_store", "node_id")

    def __init__(self, store, node_id):
        self._store = store
        self.node_id = node_id

    # -- column-backed fields ----------------------------------------------

    @property
    def start(self):
        return self.node_id

    @property
    def end(self):
        return self._store.ends[self.node_id]

    @property
    def parent_id(self):
        return self._store.parent_ids[self.node_id]

    @property
    def level(self):
        parent_ids = self._store.parent_ids
        level = 0
        parent_id = parent_ids[self.node_id]
        while parent_id >= 0:
            level += 1
            parent_id = parent_ids[parent_id]
        return level

    @property
    def tag(self):
        return self._store.tag_of(self.node_id)

    @property
    def text(self):
        return self._store.texts[self.node_id]

    @property
    def attributes(self):
        attributes = self._store.attribute_table.get(self.node_id)
        return attributes if attributes is not None else _EMPTY_ATTRIBUTES

    @property
    def child_ids(self):
        """Direct children's ids, derived from the region layout."""
        ends = self._store.ends
        result = []
        child_id = self.node_id + 1
        end = ends[self.node_id]
        while child_id < end:
            result.append(child_id)
            child_id = ends[child_id]
        return result

    # -- structural predicates ---------------------------------------------

    def contains_region(self, other):
        """Return True if ``other`` lies strictly within this node's region."""
        return self.start < other.start and other.end <= self.end

    def is_ancestor_of(self, other):
        """Return True if this node is a proper ancestor of ``other``."""
        return self.contains_region(other)

    def is_parent_of(self, other):
        """Return True if this node is the parent of ``other``."""
        return other.parent_id == self.node_id

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, XMLNode):
            return NotImplemented
        return self.node_id == other.node_id and self._store is other._store

    def __hash__(self):
        return hash((self._store, self.node_id))

    def __repr__(self):
        return "XMLNode(id=%d, tag=%r, start=%d, end=%d, level=%d)" % (
            self.node_id,
            self.tag,
            self.start,
            self.end,
            self.level,
        )
