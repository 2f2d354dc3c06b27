"""Shared machinery for the figure-reproduction benchmarks.

Scaling
-------
The paper ran C/Java engines on a 2 GHz P4 over 1-100 MB XMark documents.
Pure Python is roughly two orders of magnitude slower, so every document
size is scaled by ~0.1× (the *shape* of each figure — who wins and how the
gap moves with K, document size, and relaxation count — is what the
reproduction preserves, not absolute milliseconds):

    paper "1 MB"   -> 100 KB   (~75 items)
    paper "10 MB"  -> 400 KB   (~330 items)
    paper "25 MB"  -> 800 KB   (~650 items)
    paper "50 MB"  -> 1.2 MB   (~1000 items)
    paper "100 MB" -> 1.6 MB   (~1300 items)

K values scale likewise (paper 50-600 on ~2200 items ≈ ours 20-240 on
~330 items). EXPERIMENTS.md records the mapping per figure.

Contexts (document + index + statistics) are built once per size and
shared across benchmarks; what is timed is query evaluation only, exactly
as in the paper.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.trace import build_query_trace
from repro.obs.tracer import Tracer
from repro.query import parse_query
from repro.topk import DPO, Hybrid, SSO, QueryContext
from repro.xmark import PAPER_QUERIES, generate_document

#: paper document size label -> scaled byte target
SIZES = {
    "1MB": 100_000,
    "10MB": 400_000,
    "25MB": 800_000,
    "50MB": 1_200_000,
    "100MB": 1_600_000,
}

#: The evaluation queries of §6.
QUERIES = dict(PAPER_QUERIES)

_ALGORITHMS = {"dpo": DPO, "sso": SSO, "hybrid": Hybrid}

_contexts = {}
_documents = {}
_queries = {}


def document_for(size_label, seed=42):
    """Build (once) and return the scaled document itself.

    Shared by benchmarks that exercise the storage layer directly (dump,
    load, corpus splice, footprint) without paying for index/statistics
    construction.
    """
    key = (size_label, seed)
    if key not in _documents:
        _documents[key] = generate_document(
            target_bytes=SIZES[size_label], seed=seed
        )
    return _documents[key]


def context_for(size_label, seed=42):
    """Build (once) and return the QueryContext for a scaled document."""
    key = (size_label, seed)
    if key not in _contexts:
        _contexts[key] = QueryContext(document_for(size_label, seed=seed))
    return _contexts[key]


def query(name_or_text):
    """Parse (once) a named paper query or a raw query string."""
    text = QUERIES.get(name_or_text, name_or_text)
    if text not in _queries:
        _queries[text] = parse_query(text)
    return _queries[text]


def run_topk(context, algorithm_name, query_name, k, scheme=None, **kwargs):
    """One top-K evaluation; the unit of work every figure times."""
    algorithm = _ALGORITHMS[algorithm_name](context)
    tpq = query(query_name)
    if scheme is None:
        return algorithm.top_k(tpq, k, **kwargs)
    return algorithm.top_k(tpq, k, scheme=scheme, **kwargs)


def run_topk_traced(context, algorithm_name, query_name, k, scheme=None,
                    **kwargs):
    """One traced top-K evaluation; returns a :class:`QueryTrace`.

    Used outside the timed rounds to attach per-phase aggregates to a
    benchmark's ``extra_info`` — tracing adds overhead, so never time this.
    """
    algorithm = _ALGORITHMS[algorithm_name](context)
    tpq = query(query_name)
    if scheme is not None:
        kwargs["scheme"] = scheme
    tracer = Tracer()
    started = perf_counter()
    result = algorithm.top_k(tpq, k, tracer=tracer, **kwargs)
    return build_query_trace(result, tracer, perf_counter() - started)


def attach_phase_info(benchmark, context, algorithm_name, query_name, k,
                      scheme=None, **kwargs):
    """Embed one traced run's per-phase aggregates in the benchmark JSON.

    Adds ``extra_info["phases"]`` (pipeline-ordered ``{phase: {"seconds",
    "calls"}}``) and ``extra_info["counters"]`` (IR + executor totals) so
    ``--benchmark-json`` artifacts carry the cost decomposition alongside
    the timing.
    """
    trace = run_topk_traced(
        context, algorithm_name, query_name, k, scheme=scheme, **kwargs
    )
    benchmark.extra_info["phases"] = trace.phase_aggregates()
    benchmark.extra_info["counters"] = trace.counter_totals()
    return trace


def warm(context, query_name):
    """Warm the IR caches so timed rounds compare evaluation, not caching."""
    run_topk(context, "sso", query_name, 5)


def relaxation_count(context, query_name):
    """How many relaxations the schedule offers for a query on a context."""
    return len(context.schedule(query(query_name)))
