"""The StorageBackend seam between query processing and physical storage.

Everything physical — columnar node-table access (starts/ends/levels/tag-id
columns and the id-level join kernels), inverted-index postings, and corpus
statistics — sits behind :class:`StorageBackend`.  The query layers
(``topk/*``, ``plans/*``, ``stats/*``) execute exclusively through this
protocol; a CI gate (``tools/check_layering.py``) fails the build if any of
them imports a storage class directly.

The architecture mirrors SQLAlchemy's engine/pool/dialect split (ROADMAP
item 2): the backend is the *dialect* — it knows how bytes are laid out and
how to navigate them — while :class:`~repro.engine.Engine` owns process
state and :class:`~repro.session.Session` carries per-query state.  A
future mmap or sharded backend implements this class and inherits the whole
strategy/planner stack unchanged (see docs/EXTENDING.md); the conformance
suite under ``tests/backend/`` is parametrized over implementations so new
backends get their tests for free.

Three groups of members:

- **abstract physical primitives** every backend must provide: the
  flyweight :attr:`document` view, the columnar :attr:`ends` /
  :attr:`levels` / :attr:`parent_ids` / :attr:`tag_ids` columns, the
  :attr:`ir` engine (full-text postings), and the statistics counts.
- **concrete navigation defaults** delegating to the document view — a
  backend whose storage supports faster paths overrides them.
- **concrete join kernels** running the reference merges from
  :mod:`repro.backend.kernels` over the backend's own columns.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right

from repro.backend.kernels import (
    max_value_per_ancestor,
    max_value_per_descendant,
    semi_join_ancestor_ids,
    semi_join_descendant_ids,
    structural_join_ids,
    twig_filter_ids,
)


class StorageBackend(ABC):
    """Abstract physical layer: node table, postings, statistics.

    A backend is long-lived and shared across threads; implementations must
    keep reads thread-safe under the backend's :attr:`lock` discipline
    (queries hold the read side, ingest the write side).
    """

    # -- identity and lifecycle ----------------------------------------------

    @property
    @abstractmethod
    def document(self):
        """The flyweight node-view facade over the node table."""

    @property
    def corpus(self):
        """The growable corpus this backend serves, or None."""
        return None

    @property
    @abstractmethod
    def lock(self):
        """The RWLock guarding this backend's storage."""

    @property
    def version(self):
        """Monotonic content version; bumps on every ingest."""
        corpus = self.corpus
        return corpus.version if corpus is not None else 0

    @property
    def virtual_root_id(self):
        """Synthetic collection-root node id excluded from statistics."""
        return None

    @abstractmethod
    def subscribe(self, listener):
        """Register ``listener(backend, start_id, end_id)`` for ingests.

        Fired after the backend has folded the appended id range into its
        own index and statistics, so subscribers observe a consistent
        backend.  Ingest and notification happen under the write lock.
        """

    def add_document(self, document, name=None):
        """Splice a parsed document into the backend's corpus."""
        corpus = self.corpus
        if corpus is None:
            raise TypeError(
                "%s is not corpus-backed; ingest is unsupported"
                % type(self).__name__
            )
        return corpus.add_document(document, name=name)

    def describe(self):
        """Operational summary (kind, node count, version)."""
        return {
            "kind": type(self).__name__,
            "nodes": len(self.document),
            "version": self.version,
            "corpus_backed": self.corpus is not None,
        }

    # -- columnar node table -------------------------------------------------

    @property
    @abstractmethod
    def ends(self):
        """Region-end column, indexable by node id (id == region start)."""

    @property
    @abstractmethod
    def levels(self):
        """Depth column, indexable by node id."""

    @property
    @abstractmethod
    def parent_ids(self):
        """Parent-id column, indexable by node id (-1 at roots)."""

    @property
    @abstractmethod
    def tag_ids(self):
        """Interned tag-id column, indexable by node id."""

    def __len__(self):
        return len(self.document)

    # -- navigation (concrete defaults over the document view) ---------------

    def node(self, node_id):
        return self.document.node(node_id)

    def nodes(self):
        return self.document.nodes()

    def nodes_with_tag(self, tag):
        return self.document.nodes_with_tag(tag)

    def node_ids_with_tag(self, tag):
        """Id-sorted ids of the nodes carrying ``tag`` (shared; read only)."""
        return self.document.store.node_ids_with_tag(tag)

    def count(self, tag):
        return self.document.count(tag)

    def parent(self, node):
        return self.document.parent(node)

    def children(self, node):
        return self.document.children(node)

    def children_with_tag(self, node, tag):
        return self.document.children_with_tag(node, tag)

    def ancestors(self, node):
        return self.document.ancestors(node)

    def descendants(self, node):
        return self.document.descendants(node)

    def descendants_with_tag(self, node, tag):
        return self.document.descendants_with_tag(node, tag)

    def descendant_ids_with_tag(self, node_id, tag):
        """Ids of ``node_id``'s descendants carrying ``tag`` (id-sorted).

        Ids in, ids out, columns only: two binary searches over the tag's
        id list bounded by the node's region.  A node view is accepted in
        place of its id.
        """
        node_id = getattr(node_id, "node_id", node_id)
        ids = self.node_ids_with_tag(tag)
        low = bisect_right(ids, node_id)
        return ids[low:bisect_left(ids, self.ends[node_id], low)]

    def child_ids_with_tag(self, node_id, tag):
        """Ids of ``node_id``'s children carrying ``tag`` (id-sorted)."""
        node_id = getattr(node_id, "node_id", node_id)
        parent_ids = self.parent_ids
        return [
            child_id
            for child_id in self.descendant_ids_with_tag(node_id, tag)
            if parent_ids[child_id] == node_id
        ]

    # -- id-level join kernels ------------------------------------------------

    def structural_join_ids(self, ancestor_ids, descendant_ids, axis="ad"):
        """All joining ``(ancestor_id, descendant_id)`` pairs."""
        return structural_join_ids(
            self.ends, self.levels, ancestor_ids, descendant_ids, axis=axis
        )

    def semi_join_ancestor_ids(self, ancestor_ids, descendant_ids, axis="ad"):
        """Ids from ``ancestor_ids`` with at least one joining descendant."""
        return semi_join_ancestor_ids(
            self.ends, self.levels, ancestor_ids, descendant_ids, axis=axis
        )

    def semi_join_descendant_ids(self, ancestor_ids, descendant_ids, axis="ad"):
        """Ids from ``descendant_ids`` with at least one joining ancestor."""
        return semi_join_descendant_ids(
            self.ends, self.levels, ancestor_ids, descendant_ids, axis=axis
        )

    def twig_filter_ids(self, pools, parents, axes, order):
        """Holistic twig filter over id-sorted per-variable candidate pools."""
        return twig_filter_ids(
            self.ends, self.levels, pools, parents, axes, order
        )

    def max_value_per_ancestor(self, ancestor_ids, descendant_ids,
                               descendant_values, axis="ad"):
        """Per ancestor, the max value over its joining descendants."""
        return max_value_per_ancestor(
            self.ends, self.levels, ancestor_ids, descendant_ids,
            descendant_values, axis=axis,
        )

    def max_value_per_descendant(self, ancestor_ids, ancestor_values,
                                 descendant_ids, axis="ad"):
        """Per descendant, the max value over its joining ancestors."""
        return max_value_per_descendant(
            self.ends, self.levels, ancestor_ids, ancestor_values,
            descendant_ids, axis=axis,
        )

    # -- full-text ------------------------------------------------------------

    @property
    @abstractmethod
    def ir(self):
        """The :class:`~repro.ir.engine.IREngine` over this storage."""

    def posting(self, term):
        """The inverted-index posting for ``term`` (empty if absent)."""
        return self.ir.index.posting(term)

    # -- statistics (§4.3.1 / §6 counts) --------------------------------------

    @property
    @abstractmethod
    def total_elements(self):
        """Element count, excluding any virtual collection root."""

    @abstractmethod
    def tag_count(self, tag):
        """``#(t)``: elements with the tag (None counts all)."""

    @abstractmethod
    def pc_count(self, parent_tag, child_tag):
        """``#pc(t1, t2)``: parent-child pairs."""

    @abstractmethod
    def ad_count(self, ancestor_tag, descendant_tag):
        """``#ad(t1, t2)``: ancestor-descendant pairs."""

    @abstractmethod
    def pc_parent_count(self, parent_tag, child_tag):
        """Distinct ``parent_tag`` elements with ≥1 ``child_tag`` child."""

    @abstractmethod
    def ad_ancestor_count(self, ancestor_tag, descendant_tag):
        """Distinct ancestors with ≥1 ``descendant_tag`` descendant."""

    def pc_child_fraction(self, parent_tag, child_tag):
        """Fraction of ``parent_tag`` elements with a ``child_tag`` child."""
        total = self.tag_count(parent_tag)
        if total == 0:
            return 0.0
        return self.pc_parent_count(parent_tag, child_tag) / total

    def ad_descendant_fraction(self, ancestor_tag, descendant_tag):
        """Fraction of ancestors with a ``descendant_tag`` descendant."""
        total = self.tag_count(ancestor_tag)
        if total == 0:
            return 0.0
        return self.ad_ancestor_count(ancestor_tag, descendant_tag) / total

    def __repr__(self):
        return "%s(nodes=%d, version=%d)" % (
            type(self).__name__,
            len(self.document),
            self.version,
        )


def as_backend(source, ir_engine=None, statistics=None):
    """Coerce ``source`` into a :class:`StorageBackend`.

    Pass-through for an existing backend; a bare
    :class:`~repro.xmltree.document.Document` or growable corpus is wrapped
    in an :class:`~repro.backend.memory.InMemoryBackend`.  ``ir_engine`` and
    ``statistics`` optionally pre-seed the wrapper (compatibility with the
    pre-seam ``QueryContext``/``PlanExecutor`` constructors); both are
    ignored when ``source`` already is a backend.
    """
    if isinstance(source, StorageBackend):
        return source
    from repro.backend.memory import InMemoryBackend

    return InMemoryBackend(source, ir_engine=ir_engine, statistics=statistics)
