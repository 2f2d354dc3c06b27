"""The reference StorageBackend: the in-process columnar node table.

Wraps a :class:`~repro.xmltree.document.Document` or a growable corpus
(:class:`~repro.collection.Corpus` / ``DocumentCollection``) and serves the
whole :class:`~repro.backend.base.StorageBackend` surface out of the
columnar store: navigation through the flyweight view, columns by
reference, postings through a lazily built
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
from repro.backend.stats import DocumentStatistics
from repro.concurrency import RWLock
from repro.ir.engine import IREngine


def _is_growable(source):
    """True for corpus-like sources (Corpus, DocumentCollection)."""
    return hasattr(source, "add_document") and hasattr(source, "document")


class InMemoryBackend(StorageBackend):
    """StorageBackend over the in-process columnar store.

    ``ir_engine`` and ``statistics`` optionally seed the lazy members with
    caller-built instances (the pre-seam constructor-injection paths keep
    working through :func:`~repro.backend.base.as_backend`).
    """

    def __init__(self, source, ir_engine=None, statistics=None):
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
        self._statistics = statistics
        self._listeners = []
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

    def subscribe(self, listener):
        self._listeners.append(listener)

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
        for listener in list(self._listeners):
            listener(self, start_id, end_id)

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
    def levels(self):
        return self._document.store.levels

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

    @property
    def total_elements(self):
        return self.statistics.total_elements

    def tag_count(self, tag):
        return self.statistics.tag_count(tag)

    def pc_count(self, parent_tag, child_tag):
        return self.statistics.pc_count(parent_tag, child_tag)

    def ad_count(self, ancestor_tag, descendant_tag):
        return self.statistics.ad_count(ancestor_tag, descendant_tag)

    def pc_parent_count(self, parent_tag, child_tag):
        return self.statistics.pc_parent_count(parent_tag, child_tag)

    def ad_ancestor_count(self, ancestor_tag, descendant_tag):
        return self.statistics.ad_ancestor_count(ancestor_tag, descendant_tag)

    def pc_child_fraction(self, parent_tag, child_tag):
        return self.statistics.pc_child_fraction(parent_tag, child_tag)

    def ad_descendant_fraction(self, ancestor_tag, descendant_tag):
        return self.statistics.ad_descendant_fraction(
            ancestor_tag, descendant_tag
        )
