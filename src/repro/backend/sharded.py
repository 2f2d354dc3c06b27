"""ShardedBackend: one corpus partitioned by document across N children.

The sharding design (DESIGN §14) keeps per-shard execution *identical* to
single-shard execution so the scatter-gather merge in :mod:`repro.sharding`
is purely score-level:

- **Routing** — :meth:`ShardedBackend.add_document` assigns each document
  to a child backend through a stable :class:`ShardRouter` policy (default:
  CRC32 of the document name).  Every child is an ordinary corpus-backed
  backend (:class:`~repro.backend.memory.InMemoryBackend`,
  :class:`~repro.backend.disk.DiskBackend`, or any mix), so a shard on its
  own is just a smaller FleXPath corpus.
- **Global ids** — the backend records, per routed document, the node-id
  base the *unsharded* corpus would have assigned (the virtual root is 0,
  fragments follow in ingest order).  :class:`GlobalNode` wraps a
  shard-local node view with its translated global id, so merged answers
  rank and tie-break exactly like unsharded ones.
- **Statistics aggregation** — every §4.3.1 count (tag / pc / ad /
  ``#contains`` / idf statistics) is the sum over shards: documents never
  span shards and each shard excludes its own virtual root, so the sums
  equal the unsharded corpus' counts exactly.  Each shard's IR engine is
  pointed at the aggregate idf source
  (:meth:`~repro.ir.engine.IREngine.set_idf_source`), making shard-local
  keyword scores byte-identical to unsharded ones.

Query execution runs on the children themselves:
:class:`repro.sharding.ShardedQueryContext` compiles once against this
backend's aggregate statistics and gives each shard an ordinary
:class:`~repro.topk.base.QueryContext` over its child backend, so a
shard's plans read only that shard's columns and postings (scored with
the corpus-wide idf above) and memoize in that shard's own evaluation
cache.
"""

from __future__ import annotations

import os
import zlib

from repro.backend.base import StorageBackend, as_backend
from repro.concurrency import RWLock
from repro.errors import FleXPathError
from repro.ir.engine import IRMatch
from repro.obs.metrics import REGISTRY


class ShardRouter:
    """Stable document→shard assignment policy.

    Subclass and override :meth:`route` to customize placement (e.g. route
    by tenant, date, or source system — see docs/EXTENDING.md).  The
    contract: the returned index must be in ``range(shard_count)`` and must
    depend only on the arguments, never on mutable external state, so the
    same ingest sequence always produces the same placement.
    """

    def route(self, name, document, doc_index, shard_count):
        """Return the shard index for one document.

        Args:
            name: the document's corpus name (never None; assigned before
                routing).
            document: the parsed document about to be spliced.
            doc_index: 0-based global ingest position.
            shard_count: number of shards.
        """
        raise NotImplementedError


class HashRouter(ShardRouter):
    """Route by CRC32 of the document name (stable across processes).

    ``hash()`` is salted per process, so the stdlib hash would scatter the
    same corpus differently on every run; CRC32 is deterministic.
    """

    def route(self, name, document, doc_index, shard_count):
        return zlib.crc32(name.encode("utf-8")) % shard_count


class RoundRobinRouter(ShardRouter):
    """Route by ingest position — perfectly balanced, order-dependent."""

    def route(self, name, document, doc_index, shard_count):
        return doc_index % shard_count


class GlobalNode:
    """A shard-local node view re-addressed with its global node id.

    Everything except ``node_id`` delegates to the wrapped local node, so
    plan answers, snippets, and scoring helpers keep working; ``node_id``
    (and ordering/tie-breaking built on it) sees the id the unsharded
    corpus would have assigned.
    """

    __slots__ = ("_node", "node_id", "shard_index")

    def __init__(self, node, global_id, shard_index):
        object.__setattr__(self, "_node", node)
        object.__setattr__(self, "node_id", global_id)
        object.__setattr__(self, "shard_index", shard_index)

    @property
    def local_node(self):
        """The wrapped shard-local node view."""
        return self._node

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_node"), name)

    def __eq__(self, other):
        other_id = getattr(other, "node_id", None)
        return other_id == self.node_id

    def __hash__(self):
        return hash(self.node_id)

    def __repr__(self):
        return "GlobalNode(%d, shard=%d, local=%d)" % (
            self.node_id, self.shard_index, self._node.node_id
        )


class _AggregateIndexStats:
    """The corpus-wide idf source: sums index statistics over shards."""

    __slots__ = ("_backend",)

    def __init__(self, backend):
        self._backend = backend

    @property
    def text_element_count(self):
        return sum(
            shard.ir.index.text_element_count
            for shard in self._backend.shards
        )

    def document_frequency(self, term):
        return sum(
            shard.ir.index.document_frequency(term)
            for shard in self._backend.shards
        )


class _AggregateIR:
    """The coordinator's IR surface: global counts and keyword search.

    Serves exactly what coordinator-side consumers need —
    ``count_satisfying`` for the :class:`~repro.relax.penalties.PenaltyModel`
    and the selectivity estimator, ``most_specific_matches`` for keyword
    search — by summing or merging over the shard-local engines.  Point
    queries (``satisfies`` / ``score``) run on the shard engines themselves,
    inside each shard's plans, and each shard engine counts its own work.
    """

    def __init__(self, backend, stats):
        self._backend = backend
        self._stats = stats

    @property
    def index(self):
        """The aggregate idf statistics (no merged postings exist)."""
        return self._stats

    def count_satisfying(self, expression, tag=None):
        return sum(
            shard.ir.count_satisfying(expression, tag)
            for shard in self._backend.shards
        )

    def most_specific_matches(self, expression):
        backend = self._backend
        matches = []
        for shard_index, shard in enumerate(backend.shards):
            for match in shard.ir.most_specific_matches(expression):
                node = GlobalNode(
                    match.node,
                    backend.translate_id(shard_index, match.node.node_id),
                    shard_index,
                )
                matches.append(IRMatch(node, match.score))
        matches.sort(key=lambda m: (-m.score, m.node.node_id))
        return matches


class ShardedBackend(StorageBackend):
    """One logical corpus served by N child backends, split by document.

    Children may be any mix of corpus-backed backends; build convenience
    topologies with :meth:`in_memory` (N in-process shards) or :meth:`open`
    (per-shard on-disk directories, WAL-durable).  Ingest routes through
    the :class:`ShardRouter`; queries scatter through
    :class:`repro.sharding.ShardedQueryContext`.
    """

    SHARD_DIR_PREFIX = "shard-"
    DEFAULT_SHARD_COUNT = 4

    def __init__(self, shards, router=None):
        if not shards:
            raise FleXPathError("a ShardedBackend needs at least one shard")
        self._shards = [as_backend(shard) for shard in shards]
        for index, shard in enumerate(self._shards):
            if shard.corpus is None:
                raise FleXPathError(
                    "shard %d is not corpus-backed; routing needs"
                    " add_document on every child" % index
                )
        self._router = router if router is not None else HashRouter()
        self._lock = RWLock()
        # Per shard: (local_start, local_end, global_start), ascending.
        self._id_maps = [[] for _ in self._shards]
        # Global: (global_start, global_end, shard_index, local_start).
        self._global_map = []
        self._next_global = 1  # global id 0 is the virtual collection root
        self._index_stats = _AggregateIndexStats(self)
        self._ir = _AggregateIR(self, self._index_stats)
        for shard in self._shards:
            # Materializes each child's IR engine eagerly; from here on
            # every shard-local keyword score uses corpus-wide idf.
            shard.ir.set_idf_source(self._index_stats)
        self._publish_gauges()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def in_memory(cls, shard_count, router=None):
        """N fresh in-process shards over empty corpora."""
        from repro.backend.memory import InMemoryBackend
        from repro.collection import Corpus

        if shard_count < 1:
            raise FleXPathError("shard_count must be >= 1")
        shards = [InMemoryBackend(Corpus()) for _ in range(shard_count)]
        return cls(shards, router=router)

    @classmethod
    def open(cls, path, shard_count=None, router=None):
        """Open (or initialize) per-shard on-disk corpus directories.

        ``path/shard-0000 .. path/shard-NNNN`` each hold an independent
        :class:`~repro.backend.disk.DiskBackend`.  Reopening uses the
        directory count on disk when ``shard_count`` is None; a new corpus
        gets :attr:`DEFAULT_SHARD_COUNT` shards.  An explicit count that
        contradicts the directories on disk is an error — resharding is
        not implicit — and so is a single-disk corpus, or any other
        non-empty directory without shards, at ``path``.
        """
        from repro.backend.disk import DiskBackend
        from repro.backend.diskfmt import MANIFEST_NAME

        if os.path.exists(os.path.join(path, MANIFEST_NAME)):
            raise FleXPathError(
                "a single-disk corpus exists at %s; it has no shards" % path
            )
        os.makedirs(path, exist_ok=True)
        existing = cls.shard_count_at(path)
        if not existing and os.listdir(path):
            raise FleXPathError(
                "%s is not empty and holds no shard-* directories" % path
            )
        if shard_count is None:
            shard_count = existing or cls.DEFAULT_SHARD_COUNT
        elif existing and existing != shard_count:
            raise FleXPathError(
                "corpus at %s has %d shard(s), asked to open %d —"
                " resharding is not supported"
                % (path, existing, shard_count)
            )
        shards = []
        for index in range(shard_count):
            shard_dir = os.path.join(
                path, "%s%04d" % (cls.SHARD_DIR_PREFIX, index)
            )
            if os.path.exists(os.path.join(shard_dir, MANIFEST_NAME)):
                shards.append(DiskBackend.open(shard_dir))
            else:
                shards.append(DiskBackend.create(shard_dir))
        backend = cls(shards, router=router)
        backend._rebuild_id_maps()
        return backend

    @classmethod
    def shard_count_at(cls, path):
        """How many ``shard-*`` directories ``path`` holds (0: not sharded)."""
        return sum(
            1 for entry in os.listdir(path)
            if entry.startswith(cls.SHARD_DIR_PREFIX)
            and os.path.isdir(os.path.join(path, entry))
        )

    def _rebuild_id_maps(self):
        """Recover the global-id assignment from reopened shard corpora.

        Reopened shards know their own fragment tables but not the global
        ingest interleaving, so the global order is reconstructed
        deterministically: ascending by (shard, local start).  A corpus
        built and reopened through :meth:`open` with a stable router gets
        stable global ids for any single-writer ingest order per shard.
        """
        for shard_index, shard in enumerate(self._shards):
            for start, end, _name in shard.corpus.fragments():
                self._record_fragment(shard_index, start, end)
        self._publish_gauges()

    def _record_fragment(self, shard_index, local_start, local_end):
        global_start = self._next_global
        length = local_end - local_start
        self._id_maps[shard_index].append(
            (local_start, local_end, global_start)
        )
        self._global_map.append(
            (global_start, global_start + length, shard_index, local_start)
        )
        self._next_global += length
        return global_start

    # -- identity and lifecycle ----------------------------------------------

    @property
    def shards(self):
        """The child backends, by shard index."""
        return self._shards

    @property
    def shard_count(self):
        return len(self._shards)

    @property
    def document(self):
        """No unified node table exists; per-shard documents do."""
        return None

    @property
    def corpus(self):
        return None

    @property
    def lock(self):
        return self._lock

    @property
    def version(self):
        """Monotonic across the whole topology: the sum of child versions."""
        return sum(shard.version for shard in self._shards)

    def __len__(self):
        # What the unsharded corpus would hold: one virtual root plus every
        # real node (each child's length minus its own virtual root).
        return 1 + sum(len(shard.document) - 1 for shard in self._shards)

    def close(self):
        """Close every child that has a lifecycle (disk shards)."""
        for shard in self._shards:
            close = getattr(shard, "close", None)
            if close is not None:
                close()

    def compact(self):
        """Compact every child that can (disk shards).

        Each disk shard folds its WAL tail into its next sealed segment
        (:meth:`~repro.backend.disk.DiskBackend.compact`), so a reopen
        replays no WAL.  Returns the compacted shards' new generations in
        shard order and republishes the ``shards.*`` gauges.
        """
        generations = [
            shard.compact() for shard in self._shards
            if getattr(shard, "compact", None) is not None
        ]
        self._publish_gauges()
        return generations

    # -- ingest ---------------------------------------------------------------

    def add_document(self, document, name=None):
        """Route a parsed document to its shard; returns its global root node.

        Runs under the backend write lock: the route decision, the child
        splice (which extends the shard's index and statistics and bumps
        the version every coordinator cache fences on) and the global-id
        bookkeeping are one atomic transaction with respect to queries.
        """
        with self._lock.write_locked():
            doc_index = len(self._global_map)
            if name is None:
                name = "doc%d" % doc_index
            shard_index = self._router.route(
                name, document, doc_index, len(self._shards)
            )
            if not 0 <= shard_index < len(self._shards):
                raise FleXPathError(
                    "router returned shard %r for %r (have %d shards)"
                    % (shard_index, name, len(self._shards))
                )
            node = self._shards[shard_index].add_document(document, name=name)
            local_start = node.node_id
            global_start = self._record_fragment(
                shard_index, local_start, local_start + len(document)
            )
            self._publish_gauges()
        return GlobalNode(node, global_start, shard_index)

    def _publish_gauges(self):
        if not REGISTRY.enabled:
            return
        REGISTRY.set_gauge("shards.count", len(self._shards))
        REGISTRY.set_gauge("shards.documents", len(self._global_map))
        for index, shard in enumerate(self._shards):
            REGISTRY.set_gauge(
                "shards.shard%d.documents" % index, len(self._id_maps[index])
            )
            REGISTRY.set_gauge("shards.shard%d.version" % index, shard.version)
            generation = getattr(shard, "generation", None)
            if generation is not None:
                REGISTRY.set_gauge(
                    "shards.shard%d.generation" % index, generation
                )

    # -- global-id translation ------------------------------------------------

    def translate_id(self, shard_index, local_id):
        """Global node id for a shard-local one (virtual roots map to 0)."""
        if local_id == self._shards[shard_index].virtual_root_id:
            return 0
        import bisect

        id_map = self._id_maps[shard_index]
        position = bisect.bisect_right(
            id_map, (local_id, float("inf"), float("inf"))
        ) - 1
        if position >= 0:
            local_start, local_end, global_start = id_map[position]
            if local_start <= local_id < local_end:
                return global_start + (local_id - local_start)
        raise FleXPathError(
            "local id %d is not in any fragment of shard %d"
            % (local_id, shard_index)
        )

    def node(self, global_id):
        """The :class:`GlobalNode` for a global id (0 is unaddressable)."""
        import bisect

        position = bisect.bisect_right(
            self._global_map,
            (global_id, float("inf"), float("inf"), float("inf")),
        ) - 1
        if position >= 0:
            global_start, global_end, shard_index, local_start = (
                self._global_map[position]
            )
            if global_start <= global_id < global_end:
                local = self._shards[shard_index].document.node(
                    local_start + (global_id - global_start)
                )
                return GlobalNode(local, global_id, shard_index)
        raise FleXPathError("no document fragment holds global id %d" % global_id)

    def source_of(self, node):
        """Name of the routed source document containing ``node``."""
        local = getattr(node, "local_node", node)
        shard_index = getattr(node, "shard_index", None)
        if shard_index is None:
            return None
        return self._shards[shard_index].corpus.source_of(local)

    def full_text(self, node):
        """Concatenated subtree text of a :class:`GlobalNode` answer."""
        local = getattr(node, "local_node", node)
        return self._shards[node.shard_index].document.full_text(local)

    def describe(self):
        return {
            "kind": type(self).__name__,
            "shards": len(self._shards),
            "documents": len(self._global_map),
            "nodes": len(self),
            "version": self.version,
            "corpus_backed": True,
            "router": type(self._router).__name__,
            "topology": self.shard_topology(),
        }

    def shard_topology(self):
        """Per-shard operational summary for ``/statusz``."""
        topology = []
        for index, shard in enumerate(self._shards):
            entry = {
                "index": index,
                "kind": type(shard).__name__,
                "documents": len(self._id_maps[index]),
                "nodes": len(shard.document),
                "version": shard.version,
            }
            generation = getattr(shard, "generation", None)
            if generation is not None:
                entry["generation"] = generation
            topology.append(entry)
        return topology

    # -- columnar node table (no unified table exists) ------------------------

    @property
    def ends(self):
        raise TypeError("a ShardedBackend has no unified node table")

    @property
    def parent_ids(self):
        raise TypeError("a ShardedBackend has no unified node table")

    @property
    def tag_ids(self):
        raise TypeError("a ShardedBackend has no unified node table")

    # -- full-text -------------------------------------------------------------

    @property
    def ir(self):
        return self._ir

    # -- statistics (exact aggregation over shards) ----------------------------

    @property
    def total_elements(self):
        return sum(shard.total_elements for shard in self._shards)

    def tag_count(self, tag):
        return sum(shard.tag_count(tag) for shard in self._shards)

    def pc_count(self, parent_tag, child_tag):
        return sum(
            shard.pc_count(parent_tag, child_tag) for shard in self._shards
        )

    def ad_count(self, ancestor_tag, descendant_tag):
        return sum(
            shard.ad_count(ancestor_tag, descendant_tag)
            for shard in self._shards
        )

    def pc_parent_count(self, parent_tag, child_tag):
        return sum(
            shard.pc_parent_count(parent_tag, child_tag)
            for shard in self._shards
        )

    def ad_ancestor_count(self, ancestor_tag, descendant_tag):
        return sum(
            shard.ad_ancestor_count(ancestor_tag, descendant_tag)
            for shard in self._shards
        )

    def __repr__(self):
        return "ShardedBackend(shards=%d, documents=%d, version=%d)" % (
            len(self._shards), len(self._global_map), self.version
        )
