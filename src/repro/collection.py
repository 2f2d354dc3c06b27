"""Document collections with incremental ingest.

The paper's data model is "a data tree (i.e., an XML document collection)"
— a single tree whose root spans every document. :class:`Corpus` is the
first-class form of that idea: a growable collection document whose
:meth:`Corpus.add_document` splices a parsed fragment's columns under the
virtual root in O(new nodes) — no re-parse, no node copying — and notifies
subscribers (the per-document caches: inverted index, statistics, query
context) so they can extend themselves incrementally instead of rebuilding.

:class:`DocumentCollection` keeps the original batch-construction API
(``from_texts`` / ``from_files``) as a thin layer over :class:`Corpus`,
plus the helpers to recover which source document an answer came from.
"""

from __future__ import annotations

import bisect
from time import perf_counter

from repro.concurrency import RWLock
from repro.errors import FleXPathError
from repro.obs.metrics import REGISTRY
from repro.xmltree.builder import TreeBuilder
from repro.xmltree.parser import parse
from repro.xmltree.storage import read_document


class Corpus:
    """Several XML documents combined under a single growable virtual root.

    The combined document is region-encoded like any other, so the whole
    FleXPath stack (structural joins, statistics, IR engine) sees one tree.
    Appends happen at the end of the node table, which keeps every id-sorted
    structure (tag index, postings) extendable without re-sorting.
    """

    def __init__(self, root_tag="collection"):
        builder = TreeBuilder()
        builder.start(root_tag)
        builder.end()
        self._document = builder.finish()
        self._starts = []  # fragment root ids, ascending
        self._names = []
        self._listeners = []
        self._version = 0
        #: Writer-preferring reader/writer lock shared with every consumer of
        #: this corpus: queries hold it for read, :meth:`add_document` for
        #: write, so a splice (and the subscriber cascade that rebuilds the
        #: caches) can never interleave with an in-flight evaluation.
        self.lock = RWLock()

    @classmethod
    def adopt(cls, document, fragments, version=0):
        """Wrap an already-built collection document (disk hydration path).

        ``document`` must be a region-encoded collection tree whose node 0
        is the virtual root; ``fragments`` is its ``(start, end, name)``
        fragment table (the ends are read off the ``ends`` column, not
        kept).  ``version`` restores the
        mutation counter so result/plan cache fencing survives a reopen —
        a corpus reopened at version ``v`` and then grown is
        indistinguishable from one that was never closed.
        """
        self = cls.__new__(cls)
        self._document = document
        self._starts = [start for start, _, _ in fragments]
        self._names = [name for _, _, name in fragments]
        self._listeners = []
        self._version = version
        self.lock = RWLock()
        return self

    def fragments(self):
        """The ``(start, end, name)`` fragment table, ascending by start."""
        ends = self._document.store.ends
        return [
            (start, ends[start], name)
            for start, name in zip(self._starts, self._names)
        ]

    # -- ingest --------------------------------------------------------------

    def add_document(self, document, name=None):
        """Splice a parsed document into the corpus; returns its new root node.

        O(len(document)): the fragment's columns are appended to the corpus
        store with offsets applied — existing documents are never touched,
        re-parsed, or copied.  Subscribers are notified with the appended
        id range so indexes and statistics can extend incrementally.  The
        ingest is observed through the process registry
        (``corpus.documents_added``, ``corpus.nodes_added``,
        ``corpus.ingest_seconds``); a corpus holds no tracer.
        """
        started = perf_counter()
        with self.lock.write_locked():
            if name is None:
                name = "doc%d" % len(self._names)
            self._version += 1
            start_id = self._document.append_fragment(document)
            end_id = start_id + len(document)
            self._starts.append(start_id)
            self._names.append(name)
            for callback in self._listeners:
                callback(self, start_id, end_id)
        if REGISTRY.enabled:
            REGISTRY.inc_many(
                {
                    "corpus.documents_added": 1,
                    "corpus.nodes_added": end_id - start_id,
                }
            )
            REGISTRY.observe("corpus.ingest_seconds", perf_counter() - started)
            REGISTRY.set_gauge("corpus.documents", len(self._names))
        return self._document.node(start_id)

    def add_text(self, text, name=None):
        """Parse an XML string and add it; returns its root node."""
        return self.add_document(parse(text), name=name)

    def add_file(self, path, name=None):
        """Read an XML or dump file and add it; returns its root node."""
        return self.add_document(
            read_document(path), name=str(path) if name is None else name
        )

    def subscribe(self, callback):
        """Register ``callback(corpus, start_id, end_id)`` for appends."""
        self._listeners.append(callback)

    # -- accessors ------------------------------------------------------------

    @property
    def document(self):
        """The combined region-encoded document (grows in place)."""
        return self._document

    @property
    def names(self):
        return list(self._names)

    @property
    def version(self):
        """Monotonic mutation counter: bumps on every ``add_document``.

        Result caches fold this into their keys so entries written against
        an older corpus state can never answer a query against a newer one.
        """
        return self._version

    def __len__(self):
        return len(self._names)

    def source_of(self, node):
        """Return the name of the source document containing ``node``.

        The virtual root itself belongs to no source and returns None.
        """
        start = node.start
        index = bisect.bisect_right(self._starts, start) - 1
        ends = self._document.store.ends
        if index >= 0 and start < ends[self._starts[index]]:
            return self._names[index]
        return None

    def root_of(self, name):
        """Return the root node of the named source document."""
        try:
            index = self._names.index(name)
        except ValueError:
            raise FleXPathError("no document named %r" % name) from None
        return self._document.node(self._starts[index])


class DocumentCollection(Corpus):
    """Batch-built corpus: the original collection construction API."""

    @classmethod
    def from_texts(cls, texts, names=None, root_tag="collection"):
        """Combine XML strings into one collection document."""
        if not texts:
            raise FleXPathError("a collection needs at least one document")
        if names is None:
            names = ["doc%d" % index for index in range(len(texts))]
        if len(names) != len(texts):
            raise FleXPathError("names and texts must align")
        corpus = cls(root_tag=root_tag)
        for text, name in zip(texts, names):
            corpus.add_text(text, name=name)
        return corpus

    @classmethod
    def from_files(cls, paths, root_tag="collection"):
        """Combine XML files into one collection document."""
        corpus = cls(root_tag=root_tag)
        for path in paths:
            corpus.add_file(path)
        return corpus
