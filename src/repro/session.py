"""The Session layer: per-query serving state over a shared Engine.

The SQLAlchemy-inspired middle of the Engine/Session/Backend split (DESIGN
§11): the :class:`~repro.engine.Engine` owns process-wide state — backend,
cache tiers, strategies, the RWLock — while a :class:`Session` carries the
state of one serving conversation: the in-flight :class:`QueryControl`
(deadline + cancellation) and a per-session query counter.  A session holds
no exclusive resource, so ``Engine.connect()`` simply builds one and
``close()`` only marks it unusable.

Deadline/cancellation flow: ``Session.query(deadline_ms=...)`` builds a
:class:`QueryControl` whose :meth:`~QueryControl.check` raises
:class:`~repro.errors.QueryTimeoutError` /
:class:`~repro.errors.QueryCancelledError`.  The control is threaded
through the strategy into the per-query
:class:`~repro.topk.base.ExecutionSession` (checked before every plan) and
into the executor as the per-join ``checkpoint``, so long evaluations stop
at the next pipeline boundary.  :meth:`Session.cancel` trips the same
mechanism from another thread.
"""

from __future__ import annotations

from functools import lru_cache
from time import monotonic, perf_counter

from repro.errors import (
    FleXPathError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.obs import events
from repro.obs.metrics import REGISTRY
from repro.obs.trace import build_query_trace
from repro.obs.tracer import Tracer
from repro.query.parser import parse_query
from repro.query.tpq import TPQ
from repro.rank.schemes import STRUCTURE_FIRST, scheme_by_name

#: Process-wide memo for query-text parsing. ``parse_query`` is pure and
#: :class:`TPQ` is immutable (hashes by canonical structural key), so
#: sharing parse results across engines and threads is safe; lru_cache's
#: own lock makes the memo thread-safe.
_parse_query_memo = lru_cache(maxsize=512)(parse_query)


def coerce_query(query):
    """A :class:`TPQ` from a TPQ or XPath-fragment string."""
    if isinstance(query, TPQ):
        return query
    if isinstance(query, str):
        return _parse_query_memo(query)
    raise FleXPathError("query must be a TPQ or an XPath string")


def query_end_payload(query_text, k, algorithm, scheme_name, seconds, version,
                      result=None, trace=None, cached=False, deadline_ms=None,
                      outcome="ok"):
    """The ``query_end`` event payload — one schema for every emitter.

    ``result`` is a :class:`~repro.topk.base.TopKResult` (levels and
    answer count are read off it), a plain answer list (``exact``), or
    None for a query that was aborted before producing one.
    """
    return {
        "query": query_text,
        "k": k,
        "algorithm": algorithm,
        "scheme": scheme_name,
        "seconds": seconds,
        "levels_evaluated": getattr(result, "levels_evaluated", None),
        "relaxations_used": getattr(result, "relaxations_used", None),
        "answers": (
            None if result is None else len(getattr(result, "answers", result))
        ),
        "result": result,
        "trace": trace,
        "cached": cached,
        "version": version,
        "deadline_ms": deadline_ms,
        "outcome": outcome,
    }


class QueryControl:
    """Deadline and cancellation state for one query evaluation.

    ``check()`` is the hook the execution layers call at safe boundaries;
    it raises to abort.  The object is handed to exactly one query, but
    ``cancel()`` may be called from any thread (it only sets a flag).
    """

    __slots__ = ("deadline", "checks", "cancelled")

    def __init__(self, deadline_ms=None):
        if deadline_ms is not None and deadline_ms <= 0:
            raise FleXPathError("deadline_ms must be positive")
        self.deadline = (
            monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        self.checks = 0
        self.cancelled = False

    def cancel(self):
        """Flag the query for abort at its next checkpoint."""
        self.cancelled = True

    def remaining_ms(self):
        """Milliseconds until the deadline, or None without one."""
        if self.deadline is None:
            return None
        return max(0.0, (self.deadline - monotonic()) * 1000.0)

    def check(self):
        """Raise if the query was cancelled or ran past its deadline."""
        self.checks += 1
        if self.cancelled:
            raise QueryCancelledError("query cancelled")
        if self.deadline is not None and monotonic() > self.deadline:
            raise QueryTimeoutError("query exceeded its deadline")


class Session:
    """One serving conversation: per-query control over shared engine state.

    Not thread-safe — a session serves one query at a time; the single
    exception is :meth:`cancel`, which may be called from any thread to
    abort the in-flight query.
    """

    __slots__ = ("engine", "closed", "_control", "queries")

    def __init__(self, engine):
        self.engine = engine
        self.closed = False
        self._control = None
        self.queries = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        """Mark the session unusable (idempotent)."""
        self.closed = True
        self._control = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def cancel(self):
        """Abort the in-flight query at its next checkpoint (thread-safe)."""
        control = self._control
        if control is not None:
            control.cancel()

    # -- serving ---------------------------------------------------------------

    def query(self, query, k=10, scheme=STRUCTURE_FIRST, algorithm=None,
              max_relaxations=None, trace=False, deadline_ms=None):
        """Evaluate one top-K query through the shared engine.

        Args:
            query: an XPath-fragment string or a :class:`~repro.query.tpq.TPQ`.
            k: how many answers to return.
            scheme: a ranking scheme object or name ("structure-first",
                "keyword-first", "combined").
            algorithm: "dpo", "sso", "hybrid" (the default), "naive", or
                "ir-first".
            max_relaxations: cap on relaxation schedule length (None = all).
            trace: when True, evaluate with tracing on and return a
                :class:`~repro.obs.QueryTrace` (the result is its
                ``.result``) instead of the bare result.
            deadline_ms: per-query evaluation budget enforced at plan and
                join boundaries; raises
                :class:`~repro.errors.QueryTimeoutError` on expiry.

        Untraced queries probe the result cache and evaluate under the
        read lock.  Traced queries bypass the result cache and run under
        the write lock: their counters are the deltas of the sources'
        shared lifetime counters (see
        :meth:`~repro.topk.base.Strategy.top_k`), exact only while no other
        query runs.

        When the engine has a trace sink configured
        (``Engine.configure_tracing``), a per-query sampling decision may
        additionally promote this call to a traced run whose spans export
        to the sink; the caller still gets the bare result.  Sampled
        queries pay the traced query's costs (write lock, result-cache
        bypass) — size ``sample_rate`` accordingly.
        """
        if self.closed:
            raise FleXPathError("session is closed; connect a new one")
        engine = self.engine
        context = engine.context
        result_cache = engine.result_cache
        tpq = coerce_query(query)
        if isinstance(scheme, str):
            scheme = scheme_by_name(scheme)
        strategy = engine.strategy(algorithm)
        control = (
            QueryControl(deadline_ms=deadline_ms)
            if deadline_ms is not None
            else None
        )
        self._control = control
        self.queries += 1
        query_text = query if isinstance(query, str) else tpq.to_xpath()
        # The sampling decision happens before the cache probe: a sampled
        # query must actually evaluate for its spans to mean anything.
        sink = engine.trace_sink
        sampled = (
            not trace
            and sink is not None
            and engine.trace_sampler.sample()
        )
        traced_run = trace or sampled
        started = perf_counter()
        version = engine.backend.version
        query_trace = result = outcome = None
        cached = False
        try:
            if not traced_run:
                # Only untraced queries probe the result cache: a traced
                # query's caller asked to watch the evaluation, so a memo
                # would be useless.
                result = None
                if result_cache is not None:
                    cache_key = (
                        tpq, k, scheme.name, strategy.name, max_relaxations
                    )
                    result = result_cache.get(cache_key, version)
                cached = result is not None
                if not cached:
                    # Read lock: any number of queries evaluate concurrently;
                    # ingest (the only mutation) takes the write side.
                    with context.rwlock.read_locked():
                        result = strategy.top_k(
                            tpq, k, scheme=scheme,
                            max_relaxations=max_relaxations, control=control,
                        )
                    if result_cache is not None:
                        result_cache.put(cache_key, version, result)
            else:
                # Traced queries take the WRITE lock: the trace counts the
                # shared IR engines' and evaluation caches' lifetime
                # counters over the query, exact only while no other
                # query moves them.
                with context.rwlock.write_locked():
                    tracer = Tracer(sink=sink)
                    result = strategy.top_k(
                        tpq, k, scheme=scheme,
                        max_relaxations=max_relaxations,
                        tracer=tracer, control=control,
                    )
                if sink is not None:
                    if REGISTRY.enabled:
                        REGISTRY.inc("trace.exported")
                    tracer.finish_root(
                        "query",
                        attributes={
                            "query": query_text,
                            "algorithm": result.algorithm,
                            "k": k,
                            "answers": len(result.answers),
                            "sampled": sampled,
                        },
                    )
                if trace:
                    query_trace = build_query_trace(
                        result, tracer, perf_counter() - started
                    )
            outcome = "ok"
        except Exception as error:
            REGISTRY.inc("query.errors")
            if isinstance(error, QueryTimeoutError):
                counter, outcome = "query.timeouts", "timeout"
            elif isinstance(error, QueryCancelledError):
                counter, outcome = "query.cancellations", "cancelled"
            else:
                raise
            REGISTRY.inc(counter)
            raise
        finally:
            self._control = None
            # A query ends once whether it answered or ran out of time;
            # any other error is the caller's to see, not an outcome.
            if outcome is not None:
                seconds = perf_counter() - started
                if outcome == "ok" and REGISTRY.enabled:
                    REGISTRY.inc("query.count")
                    REGISTRY.observe("query.seconds", seconds)
                if events.LISTENERS:
                    events.emit(query_end_payload(
                        query_text, k, strategy.name, scheme.name, seconds,
                        engine.backend.version, result=result,
                        trace=query_trace, cached=cached,
                        deadline_ms=deadline_ms, outcome=outcome,
                    ))
        return query_trace if trace else result
