"""The StorageBackend seam between query processing and physical storage.

Everything physical — columnar node-table access (ends/parent/tag-id
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

The seam is exactly what the query layers call (DESIGN §11), in three
groups:

- **abstract physical primitives** every backend must provide: the
  node-view :attr:`document`, the columnar :attr:`ends` /
  :attr:`parent_ids` / :attr:`tag_ids` columns, the
  :attr:`ir` engine (full-text postings), and the statistics counts.
- **topology** — :attr:`shards` names the backends plans run on, each
  with its own executor: ``(self,)`` here; a sharded backend lists its
  children and adds ``translate_id`` and ``keyword_ceilings``.
- **id access** — :meth:`node_ids_with_tag` seeds candidate pools and
  :meth:`node` makes the one view an answer needs; all other navigation
  lives on the :class:`~repro.xmltree.document.Document` itself.
- **concrete join kernels** running the reference merges from
  :mod:`repro.backend.kernels` over the backend's own columns.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.backend.kernels import (
    max_value_per_ancestor,
    max_value_per_descendant,
    semi_join_ancestor_ids,
    structural_join_ids,
)
from repro.backend.stats import CountFractions


class StorageBackend(CountFractions, ABC):
    """Abstract physical layer: node table, postings, statistics.

    A backend is long-lived and shared across threads; implementations must
    keep reads thread-safe under the backend's :attr:`lock` discipline
    (queries hold the read side, ingest the write side).
    """

    # -- identity and lifecycle ----------------------------------------------

    @property
    @abstractmethod
    def document(self):
        """The node-view facade over the node table."""

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
        """Monotonic content version; bumps on every ingest.

        Every cache above the backend fences on it (DESIGN §9); nothing
        above the backend is told of an ingest.
        """
        corpus = self.corpus
        return corpus.version if corpus is not None else 0

    @property
    def shards(self):
        """The backends a query's plans run on: this one, unsharded."""
        return (self,)

    @property
    def virtual_root_id(self):
        """Synthetic collection-root node id excluded from statistics."""
        return None

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
    def parent_ids(self):
        """Parent-id column, indexable by node id (-1 at roots)."""

    @property
    @abstractmethod
    def tag_ids(self):
        """Interned tag-id column, indexable by node id."""

    def __len__(self):
        return len(self.document)

    # -- node access ---------------------------------------------------------

    def node(self, node_id):
        """The node view for ``node_id`` (answers only; plans run on ids)."""
        return self.document.node(node_id)

    def node_ids_with_tag(self, tag):
        """Id-sorted ids of the nodes carrying ``tag`` (shared; read only)."""
        return self.document.store.node_ids_with_tag(tag)

    # -- id-level join kernels ------------------------------------------------

    def structural_join_ids(self, ancestor_ids, descendant_ids, axis="ad"):
        """All joining ``(ancestor_id, descendant_id)`` pairs."""
        return structural_join_ids(
            self.ends, self.parent_ids, ancestor_ids, descendant_ids,
            axis=axis,
        )

    def semi_join_ancestor_ids(self, ancestor_ids, descendant_ids, axis="ad"):
        """Ids from ``ancestor_ids`` with at least one joining descendant."""
        return semi_join_ancestor_ids(
            self.ends, self.parent_ids, ancestor_ids, descendant_ids,
            axis=axis,
        )

    def max_value_per_ancestor(self, ancestor_ids, descendant_ids,
                               descendant_values, axis="ad"):
        """Per ancestor, the max value over its joining descendants."""
        return max_value_per_ancestor(
            self.ends, self.parent_ids, ancestor_ids, descendant_ids,
            descendant_values, axis=axis,
        )

    def max_value_per_descendant(self, ancestor_ids, ancestor_values,
                                 descendant_ids, axis="ad"):
        """Per descendant, the max value over its joining ancestors."""
        return max_value_per_descendant(
            self.ends, self.parent_ids, ancestor_ids, ancestor_values,
            descendant_ids, axis=axis,
        )

    # -- full-text ------------------------------------------------------------

    @property
    @abstractmethod
    def ir(self):
        """The :class:`~repro.ir.engine.IREngine` over this storage."""

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

    def __repr__(self):
        return "%s(nodes=%d, version=%d)" % (
            type(self).__name__,
            len(self.document),
            self.version,
        )


def as_backend(source, ir_engine=None):
    """Coerce ``source`` into a :class:`StorageBackend`.

    Pass-through for an existing backend; a bare
    :class:`~repro.xmltree.document.Document` or growable corpus is wrapped
    in an :class:`~repro.backend.memory.InMemoryBackend`.  ``ir_engine``
    optionally pre-seeds the wrapper (the ``QueryContext``/``PlanExecutor``
    constructors accept one); it is ignored when ``source`` already is a
    backend.
    """
    if isinstance(source, StorageBackend):
        return source
    from repro.backend.memory import InMemoryBackend

    return InMemoryBackend(source, ir_engine=ir_engine)


def open_path(path):
    """Open whatever ``path`` holds; the one place that decides what.

    A file is one document, XML or a dump, in memory; a directory of
    ``shard-*`` directories a :class:`~repro.backend.sharded.ShardedBackend`;
    one with a ``MANIFEST.json`` a :class:`~repro.backend.disk.DiskBackend`.
    Anything else is refused, so opening never creates a corpus
    (``DiskBackend.create`` and ``ShardedBackend.open`` start new ones).
    """
    import os

    from repro.backend.disk import DiskBackend
    from repro.backend.diskfmt import MANIFEST_NAME
    from repro.backend.sharded import ShardedBackend
    from repro.errors import FleXPathError
    from repro.xmltree.storage import read_document

    path = str(path)
    if os.path.isfile(path):
        return as_backend(read_document(path))
    if not os.path.isdir(path):
        raise FleXPathError("no such file or directory: %s" % path)
    if ShardedBackend.shard_count_at(path):
        return ShardedBackend.open(path)
    if os.path.exists(os.path.join(path, MANIFEST_NAME)):
        return DiskBackend.open(path)
    raise FleXPathError(
        "%s holds no corpus (no %s, no shard-* directories)"
        % (path, MANIFEST_NAME)
    )
