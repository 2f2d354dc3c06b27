"""The Engine: the one serving entry point above ``strategy.top_k``.

The top of the Engine/Session/Backend split (DESIGN §11):

- :class:`Engine` is the process-wide serving core.  It owns the
  :class:`~repro.backend.base.StorageBackend`, the per-backend
  :class:`~repro.topk.base.QueryContext` (and with it the plan and
  evaluation caches), the result cache, the five shared stateless
  strategies, the RWLock discipline (the backend's lock) and the process
  metrics registry handle.  Every historical entry point lives here once:
  ``query``, ``query_many``, ``exact``, ``keyword_search``,
  ``relaxations``, ``explain`` and the constructors.  The engine never
  asks what topology it serves: the one context class runs plans on
  whatever shards the backend reports, one for a plain backend.
- ``Engine.connect()`` returns a :class:`~repro.session.Session`: the
  handle that runs queries with per-query deadline/cancellation hooks.
  ``Engine.query`` is ``connect().query``.
- :class:`FleXPath` — the paper's Figure 7 name — *is* an ``Engine``.

Typical use::

    from repro import Engine

    engine = Engine.from_xml(xml_text)
    results = engine.query(
        '//article[.//algorithm and ./section[./paragraph'
        ' and .contains("XML" and "streaming")]]',
        k=10,
    )
    for answer in results.answers:
        print(answer.node.tag, answer.score)

or, with explicit session control::

    with engine.connect() as session:
        result = session.query("//article[./title]", k=5, deadline_ms=50)
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from repro.backend import as_backend, open_path
from repro.cache import ResultCache
from repro.errors import FleXPathError, QueryBatchError
from repro.obs import events
from repro.obs.metrics import REGISTRY
from repro.plans.executor import STRICT
from repro.rank.schemes import STRUCTURE_FIRST, scheme_by_name
from repro.relax.penalties import UNIFORM_WEIGHTS
from repro.session import Session, coerce_query, query_end_payload
from repro.topk.base import QueryContext, Scatter, summed
from repro.topk.dpo import DPO
from repro.topk.hybrid import Hybrid
from repro.topk.ir_first import IRFirstDPO
from repro.topk.naive import NaiveRewriting
from repro.topk.sso import SSO
from repro.xmltree.parser import parse as parse_xml

#: Strategy name → class; the names ``query(algorithm=...)`` accepts.
ALGORITHMS = {
    "dpo": DPO,
    "sso": SSO,
    "hybrid": Hybrid,
    "naive": NaiveRewriting,
    "ir-first": IRFirstDPO,
}

DEFAULT_ALGORITHM = "hybrid"


class Engine:
    """Process-wide serving core: backend, caches, strategies.

    One engine per served backend; everything on it is shared and
    thread-safe.  Queries go through sessions (:meth:`connect`) or the
    :meth:`query` / :meth:`query_many` conveniences that open one
    internally.

    ``cache=False`` is the kill switch for *both* caching tiers: every
    source's :class:`~repro.plans.eval_cache.EvaluationCache` is
    disabled and no :class:`~repro.cache.ResultCache` is attached, so
    every query recomputes from scratch (byte-identical answers, useful
    for benchmarking and verification).

    Attributes (shared state; treat as read-only):
        backend: the :class:`~repro.backend.base.StorageBackend` served.
        context: the shared :class:`~repro.topk.base.QueryContext`.
        algorithms: name → shared stateless strategy instance.
        result_cache: the tier-2 :class:`~repro.cache.ResultCache`, or
            None when caching is off.
        trace_sink, trace_sample_rate: the sink set by
            :meth:`configure_tracing` and the share of queries it samples,
            or None.
        observability_server: the server :meth:`serve_metrics` started,
            or None.
    """

    def __init__(self, source, weights=UNIFORM_WEIGHTS, cache=True,
                 result_cache_size=None, plan_cache_size=None):
        self.backend = as_backend(source)
        self.context = QueryContext(
            self.backend, weights=weights, plan_cache_size=plan_cache_size
        )
        self.algorithms = {
            name: cls(self.context) for name, cls in ALGORITHMS.items()
        }
        if cache:
            self.result_cache = ResultCache(result_cache_size)
        else:
            for cache in self.context.eval_caches:
                cache.enabled = False
            self.result_cache = None
        self.metrics = REGISTRY
        self.trace_sink = None
        self.trace_sample_rate = None
        self.observability_server = None

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_xml(cls, text, **kwargs):
        """Build an engine from an XML string."""
        return cls(parse_xml(text), **kwargs)

    @classmethod
    def from_files(cls, paths, **kwargs):
        """Build an engine over a collection parsed from XML files."""
        from repro.collection import DocumentCollection

        return cls(DocumentCollection.from_files(paths), **kwargs)

    @classmethod
    def open(cls, path, **kwargs):
        """Serve whatever ``path`` holds, as
        :func:`~repro.backend.base.open_path` decides; a missing path or a
        directory without a corpus is refused."""
        return cls(open_path(path), **kwargs)

    @classmethod
    def sharded(cls, shard_count=None, router=None, path=None, **kwargs):
        """Build an engine over a document-partitioned sharded corpus.

        With ``path=None``, ``shard_count`` fresh in-process shards; with a
        path, one WAL-durable :class:`~repro.backend.disk.DiskBackend`
        directory per shard under it (``path/shard-0000`` ...), reopenable
        with the same call.  ``shard_count`` defaults to the number of
        shard directories already under ``path``, else to
        :attr:`~repro.backend.sharded.ShardedBackend.DEFAULT_SHARD_COUNT`
        (4); a count that contradicts the directories on disk is refused.
        ``router`` picks the document→shard placement policy (default:
        stable hash of the document name).  Queries scatter over the
        shards in parallel and merge with the maxScoreGrowth
        early-termination bound; answers, scores, and penalties are
        identical to an unsharded engine over the same ingest sequence.
        """
        from repro.backend.sharded import ShardedBackend

        if path is None:
            if shard_count is None:
                shard_count = ShardedBackend.DEFAULT_SHARD_COUNT
            backend = ShardedBackend.in_memory(shard_count, router=router)
        else:
            backend = ShardedBackend.open(
                path, shard_count=shard_count, router=router
            )
        return cls(backend, **kwargs)

    # -- shared state ------------------------------------------------------------

    @property
    def document(self):
        """The unified document, or None over a sharded backend."""
        return self.backend.document

    @property
    def corpus(self):
        """The bound corpus, or None when built from a single document."""
        return self.backend.corpus

    @property
    def lock(self):
        """The backend's RWLock (queries read, ingest writes)."""
        return self.backend.lock

    def strategy(self, algorithm=None):
        """The shared strategy for ``algorithm`` (None = the default)."""
        if algorithm is None:
            algorithm = DEFAULT_ALGORITHM
        try:
            return self.algorithms[algorithm.lower()]
        except (KeyError, AttributeError):
            raise FleXPathError(
                "unknown algorithm %r (choose from %s)"
                % (algorithm, ", ".join(sorted(ALGORITHMS)))
            ) from None

    def cache_info(self):
        """One consistent schema across all three caching tiers.

        Every tier reports the same keys — ``entries``, ``max_entries``,
        ``hits``, ``misses``, ``evictions``, ``invalidations`` — under
        ``plan_cache`` / ``eval_cache`` / ``result_cache`` (the last is
        None when caching is disabled).
        """
        return {
            "enabled": self.result_cache is not None,
            "plan_cache": self.context.plan_cache.info(),
            "eval_cache": summed(
                cache.info() for cache in self.context.eval_caches
            ),
            "result_cache": (
                self.result_cache.info()
                if self.result_cache is not None
                else None
            ),
        }

    # -- observability -----------------------------------------------------------

    def configure_tracing(self, sink, sample_rate=1.0):
        """Attach a trace sink with probabilistic per-query sampling.

        ``sink`` is any object with an ``export(record)`` method.  With a
        sink attached, each ``session.query`` call rolls against
        ``sample_rate``; a sampled query runs traced (write lock, result
        cache bypassed) and exports its finished trace to the sink as one
        record, while the caller still receives the bare result.  Explicit
        ``trace=True`` queries always export when a sink is configured.

        ``configure_tracing(None)`` detaches the sink (and stops
        sampling).  The sink's lifecycle stays with the caller — the
        engine never closes it.
        """
        if not 0.0 <= sample_rate <= 1.0:
            raise FleXPathError("sample_rate must be in [0, 1]")
        self.trace_sample_rate = sample_rate if sink is not None else None
        self.trace_sink = sink
        return sink

    def serve_metrics(self, port=0, host="127.0.0.1"):
        """Start the embedded observability HTTP endpoint (idempotent).

        Serves ``/metrics`` (Prometheus text), ``/metrics.json``,
        ``/healthz``, and ``/statusz`` from a daemon thread;
        ``port=0`` binds an ephemeral port.  Returns the running
        :class:`~repro.obs.http.ObservabilityServer` (its ``.port`` is
        the bound port); calling again returns the same server.
        """
        if self.observability_server is None:
            from repro.obs.http import ObservabilityServer

            server = ObservabilityServer(self, host=host, port=port)
            server.start()
            self.observability_server = server
        return self.observability_server

    # -- serving -----------------------------------------------------------------

    def connect(self):
        """A fresh :class:`~repro.session.Session` over this engine.

        The session is the handle ``cancel()`` needs; use it as a context
        manager::

            with engine.connect() as session:
                session.query("//article", k=5)
        """
        return Session(self)

    def query(self, query, **kwargs):
        """Evaluate one top-K query with relaxation.

        Accepts everything :meth:`repro.session.Session.query` does
        (``k``, ``scheme``, ``algorithm``, ``max_relaxations``, ``trace``,
        ``deadline_ms``) and returns its
        :class:`~repro.topk.base.TopKResult` (or
        :class:`~repro.obs.QueryTrace` when ``trace``).
        """
        return Session(self).query(query, **kwargs)

    def query_many(self, queries, k=10, scheme=STRUCTURE_FIRST,
                   algorithm=None, max_relaxations=None, workers=4,
                   deadline_ms=None, return_exceptions=False):
        """Evaluate a batch concurrently; results keep input order.

        Each query runs through :meth:`query` on a worker thread — its own
        session, same caching, metrics, and events as a sequential
        loop — under the backend read lock, so the batch interleaves
        safely with concurrent ingest.  ``deadline_ms`` applies per query,
        not to the whole batch.

        One failing query never aborts its siblings: the whole batch runs
        to completion regardless.  Failures then surface together as a
        :class:`~repro.errors.QueryBatchError` carrying every
        ``(index, exception)`` pair in input order plus the successful
        results — or, with ``return_exceptions=True``, inline in the
        returned list at their query's position, asyncio-gather style.

        Args:
            queries: iterable of XPath-fragment strings or TPQs.
            workers: thread-pool width (1 degrades to a plain loop).
            return_exceptions: put exceptions in the result list instead
                of raising ``QueryBatchError``.
        """
        queries = list(queries)
        if not queries:
            return []
        if workers < 1:
            raise FleXPathError("workers must be >= 1")

        def run(query):
            try:
                return self.query(
                    query, k=k, scheme=scheme, algorithm=algorithm,
                    max_relaxations=max_relaxations, deadline_ms=deadline_ms,
                )
            except Exception as exc:
                return exc

        if workers == 1 or len(queries) == 1:
            outcomes = [run(query) for query in queries]
        else:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(queries))
            ) as pool:
                outcomes = list(pool.map(run, queries))

        failed = [
            (index, outcome) for index, outcome in enumerate(outcomes)
            if isinstance(outcome, Exception)
        ]
        if not failed or return_exceptions:
            return outcomes
        raise QueryBatchError(failed, [
            None if isinstance(outcome, Exception) else outcome
            for outcome in outcomes
        ])

    def exact(self, query):
        """Evaluate with strict XPath semantics — no relaxation.

        Returns the list of matching nodes in document order (the baseline
        the paper's "strict interpretation" discussion refers to).  Strict
        evaluation is level 0 of every relaxation schedule, so this runs
        the compiled level-0 plan on the twig operator over every source
        and orders the answers by (global) node id.  As in :meth:`query`,
        a corpus' virtual root binds no variable.
        """
        tpq = coerce_query(query)
        query_text = query if isinstance(query, str) else tpq.to_xpath()
        started = perf_counter()
        try:
            with self.lock.read_locked():
                compiled = self.context.compile(tpq, max_relaxations=0)
                scatter = Scatter(self.context, compiled)
                node_ids = sorted(
                    node_id
                    for index, result in scatter.run(
                        compiled.strict_plan(0), "level 0", mode=STRICT
                    )
                    for node_id in scatter.node_ids(index, result.matches)
                )
                nodes = [self.context.backend.node(node_id) for node_id in node_ids]
        except Exception:
            REGISTRY.inc("query.errors")
            raise
        seconds = perf_counter() - started
        if REGISTRY.enabled:
            REGISTRY.inc("exact.count")
            REGISTRY.observe("exact.seconds", seconds)
        # What the plan counted on each source is this call's, not the next
        # top-K query's: fold it here, as Strategy.top_k does.
        REGISTRY.fold_lifetime(self.context.components)
        if events.LISTENERS:
            events.emit(query_end_payload(
                query_text, None, "exact", None, seconds,
                self.backend.version, result=nodes,
            ))
        return nodes

    def keyword_search(self, ftexpr_text, k=10):
        """Pure content-only search — the Q6 extreme of the spectrum.

        Evaluates a full-text expression with no structural template at all
        and returns the top-K most specific elements, ranked by keyword
        score (the CO search of the IR literature the paper builds on).
        """
        from repro.ir.ftexpr import parse_ftexpr

        expression = parse_ftexpr(ftexpr_text)
        with self.lock.read_locked():
            matches = self.context.ir.most_specific_matches(expression)
        return matches[:k]

    def relaxations(self, query, max_steps=None):
        """Return the relaxation schedule FleXPath would use for a query."""
        return self.context.schedule(
            coerce_query(query), max_steps=max_steps
        )

    def explain(self, query, k=10, scheme=STRUCTURE_FIRST):
        """Return a human-readable description of the evaluation strategy."""
        tpq = coerce_query(query)
        if isinstance(scheme, str):
            scheme = scheme_by_name(scheme)
        schedule = self.context.schedule(tpq)
        sso = self.algorithms["sso"]
        level = sso.choose_level(schedule, k, scheme, len(tpq.contains))
        lines = [
            "query: %s" % tpq.to_xpath(),
            "ranking scheme: %s" % scheme.name,
            "available relaxations: %d" % len(schedule),
            "estimated level to encode for K=%d: %d" % (k, level),
            "",
            schedule.describe(),
        ]
        return "\n".join(lines)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.backend)


#: The paper's Figure 7 name for the serving core.
FleXPath = Engine
