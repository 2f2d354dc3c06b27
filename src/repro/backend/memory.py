"""The reference StorageBackend: the in-process columnar node table.

Wraps a :class:`~repro.xmltree.document.Document` or a growable corpus
(:class:`~repro.collection.Corpus` / ``DocumentCollection``) and serves the
whole :class:`~repro.backend.base.StorageBackend` surface out of the
columnar store: tag-index ids and node views through the document,
columns by reference, postings through a lazily built
:class:`~repro.ir.engine.IREngine`, and statistics through a lazily built
:class:`~repro.backend.stats.DocumentStatistics`.

Laziness matters for the compatibility paths: ``PlanExecutor(document,
ir_engine)`` wraps its document in a fresh backend per construction, and
must not pay for an index or statistics pass it will never use.  The
first touch of :attr:`ir` or the statistics methods materializes them
under the backend lock; later corpus appends extend whatever has been
materialized (and only that) incrementally.
"""

from __future__ import annotations

from repro.backend.base import StorageBackend
from repro.backend.stats import DocumentStatistics, count_tag
from repro.concurrency import RWLock
from repro.ir.engine import IREngine


def _is_growable(source):
    """True for corpus-like sources (Corpus, DocumentCollection)."""
    return hasattr(source, "add_document") and hasattr(source, "document")


class InMemoryBackend(StorageBackend):
    """StorageBackend over the in-process columnar store.

    ``ir_engine`` optionally seeds the lazy full-text member with a
    caller-built instance (through :func:`~repro.backend.base.as_backend`).
    """

    def __init__(self, source, ir_engine=None):
        corpus = source if _is_growable(source) else None
        self._corpus = corpus
        self._document = corpus.document if corpus is not None else source
        # A corpus' all-spanning virtual root (always node 0) must not be
        # counted by statistics it would otherwise trivially dominate.
        self._virtual_root_id = 0 if corpus is not None else None
        # Bound to a corpus the lock IS the corpus' lock, so every backend
        # over one corpus shares a single read/write discipline; a plain
        # document never mutates, so its private lock is uncontended.
        self._lock = corpus.lock if corpus is not None else RWLock()
        self._ir = ir_engine
        self._statistics = None
        if corpus is not None:
            corpus.subscribe(self._on_corpus_growth)

    # -- identity and lifecycle ----------------------------------------------

    @property
    def document(self):
        return self._document

    @property
    def corpus(self):
        return self._corpus

    @property
    def lock(self):
        return self._lock

    @property
    def virtual_root_id(self):
        return self._virtual_root_id

    def _on_corpus_growth(self, corpus, start_id, end_id):
        """Fold an appended id range into whatever is materialized.

        Runs under the corpus write lock (appends hold it for the whole
        splice-and-extend transaction).  Members never touched stay lazy:
        they will see the grown document when first built.
        """
        if self._ir is not None:
            self._ir.extend(start_id, end_id)
        if self._statistics is not None:
            self._statistics.extend(start_id, end_id)

    def describe(self):
        info = super().describe()
        info["ir_materialized"] = self._ir is not None
        info["statistics_materialized"] = self._statistics is not None
        return info

    # -- columnar node table -------------------------------------------------

    @property
    def ends(self):
        return self._document.store.ends

    @property
    def parent_ids(self):
        return self._document.store.parent_ids

    @property
    def tag_ids(self):
        return self._document.store.tag_ids

    # -- full-text ------------------------------------------------------------

    @property
    def ir(self):
        if self._ir is None:
            self._ir = IREngine(
                self._document, virtual_root_id=self._virtual_root_id
            )
        return self._ir

    # -- statistics ------------------------------------------------------------

    @property
    def statistics(self):
        if self._statistics is None:
            self._statistics = DocumentStatistics(
                self._document, virtual_root_id=self._virtual_root_id
            )
        return self._statistics

    # ``#(t)`` comes off the tag index, and a pair count of two named tags
    # off the parent column until the full pass has run: lowering a plan
    # reads nothing else, so a strict (level-0) compile never pays for the
    # distinct counts and wildcard marginals only penalties need.

    @property
    def total_elements(self):
        return self.tag_count(None)

    def tag_count(self, tag):
        return count_tag(self._document, tag, self._virtual_root_id)

    def pc_count(self, parent_tag, child_tag):
        if self._statistics is None and None not in (parent_tag, child_tag):
            return self._pair_count(parent_tag, child_tag, ancestors=False)
        return self.statistics.pc_count(parent_tag, child_tag)

    def ad_count(self, ancestor_tag, descendant_tag):
        if self._statistics is None and None not in (ancestor_tag, descendant_tag):
            return self._pair_count(ancestor_tag, descendant_tag, ancestors=True)
        return self.statistics.ad_count(ancestor_tag, descendant_tag)

    def _pair_count(self, upper_tag, lower_tag, ancestors):
        """Pairs of an ``upper_tag`` parent (or any ancestor, with
        ``ancestors``) over a ``lower_tag`` node, walking up the parent
        column from each ``lower_tag`` node.  The walk stops below the
        virtual root (node 0), which pairs with nothing."""
        store = self._document.store
        upper = store.tags.id_of(upper_tag)
        if upper < 0:
            return 0
        tag_ids, parent_ids = store.tag_ids, store.parent_ids
        stop = -1 if self._virtual_root_id is None else self._virtual_root_id
        pairs = 0
        for node_id in store.node_ids_with_tag(lower_tag):
            parent = parent_ids[node_id]
            while parent > stop:
                if tag_ids[parent] == upper:
                    pairs += 1
                if not ancestors:
                    break
                parent = parent_ids[parent]
        return pairs

    def pc_parent_count(self, parent_tag, child_tag):
        return self.statistics.pc_parent_count(parent_tag, child_tag)

    def ad_ancestor_count(self, ancestor_tag, descendant_tag):
        return self.statistics.ad_ancestor_count(ancestor_tag, descendant_tag)
