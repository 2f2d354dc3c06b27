"""Twig-join operator: one branchy strict plan, and DPO reuse.

Two questions.  *Operator*: the holistic twig operator, which runs every
strict plan, on one branchy, descendant-heavy plan whose fan-out sits on
**inner** nodes — many parlists and mails per item, each read by the join
below it.  Caching is off for this row: the timing loop re-runs the
identical plan, and any eval-cache hit would measure the cache, not the
operator.

*Reuse*: the twig operator's subtree tables are cached across relaxation
levels.  ``test_dpo_levels_reuse_untouched_subtrees`` runs DPO on paper Q3
with K = 200 and reports each strict level's milliseconds twice — *reused*,
as the walk runs it (the cache cleared once per query, so a level finds
every subtree an earlier level built), and *cold*, the same plan on a
cleared cache — and gates that the walk costs less than its levels cold.
"""

import os
import statistics
from time import perf_counter

import pytest

from repro.ir import IREngine
from repro.plans import STRICT, PlanExecutor, build_strict_plan, lower_plan
from repro.query import parse_query
from repro.relax import UNIFORM_WEIGHTS
from repro.backend.stats import DocumentStatistics
from repro.topk import DPO, QueryContext
from repro.xmark import PAPER_QUERIES

from benchmarks.harness import document_for

SIZE = os.environ.get("FLEXPATH_BENCH_SIZE", "10MB")

#: Branchy, descendant-heavy, fan-out on the inner nodes: the twig
#: operator passes over each pool once, where a tuple pipeline would
#: materialize a tuple per (item, parlist) and per (item, mail).
BRANCHY_QUERY = "//item[.//parlist//listitem and .//mail//text]"

ROUNDS = 5


@pytest.fixture(scope="module")
def doc():
    return document_for(SIZE)


@pytest.fixture(scope="module")
def ir(doc):
    return IREngine(doc)


@pytest.fixture(scope="module")
def stats(doc):
    return DocumentStatistics(doc)


@pytest.fixture(scope="module")
def executor(doc, ir):
    return PlanExecutor(doc, ir)  # no eval cache: measure the operator


@pytest.fixture(scope="module")
def lowered(stats):
    """The branchy plan in the lowering's join order."""
    plan = build_strict_plan(parse_query(BRANCHY_QUERY), UNIFORM_WEIGHTS)
    return lower_plan(plan, stats, strict=True)


def test_twig_holistic_join(benchmark, executor, lowered):
    result = benchmark.pedantic(
        lambda: executor.run(lowered, mode=STRICT),
        rounds=ROUNDS,
        warmup_rounds=1,
    )
    assert result.answers
    benchmark.extra_info["operator"] = "twig"
    benchmark.extra_info["answers"] = len(result.answers)


DPO_QUERY = PAPER_QUERIES["Q3"]
DPO_K = 200


@pytest.fixture(scope="module")
def dpo_context(doc):
    return QueryContext(doc)


def _dpo_levels(context):
    """One DPO query's strict levels: its answers, then seconds per level
    as the walk ran them (reused) and each on a cleared cache (cold)."""
    executor = context.executor
    run = executor.run
    levels = []

    def timed(plan, **options):
        started = perf_counter()
        result = run(plan, **options)
        levels.append((plan, options, perf_counter() - started))
        return result

    context.eval_cache.clear()
    executor.run = timed
    try:
        answers = DPO(context).top_k(parse_query(DPO_QUERY), DPO_K).answers
    finally:
        del executor.run
    reused = []
    cold = []
    for plan, options, seconds in levels:
        # The walk's exclusion set is live: freeze what this level saw.
        options["exclude_answer_ids"] = frozenset(options.get("exclude_answer_ids") or ())
        reused.append(seconds)
        context.eval_cache.clear()
        started = perf_counter()
        run(plan, **options)
        cold.append(perf_counter() - started)
    return answers, reused, cold


def test_dpo_levels_reuse_untouched_subtrees(benchmark, dpo_context):
    samples = []
    benchmark.pedantic(
        lambda: samples.append(_dpo_levels(dpo_context)),
        rounds=ROUNDS,
        warmup_rounds=1,
    )
    answers = samples[0][0]
    assert answers
    reused = [statistics.median(level) * 1e3 for level in zip(*(s[1] for s in samples))]
    cold = [statistics.median(level) * 1e3 for level in zip(*(s[2] for s in samples))]
    benchmark.extra_info["levels"] = len(reused)
    benchmark.extra_info["reused_ms"] = [round(ms, 3) for ms in reused]
    benchmark.extra_info["cold_ms"] = [round(ms, 3) for ms in cold]
    print("\nDPO Q3 K=%d, %s: ms per strict level" % (DPO_K, SIZE))
    print("level  reused    cold")
    for level, (warm, fresh) in enumerate(zip(reused, cold)):
        print("%5d %7.2f %7.2f" % (level, warm, fresh))
    print("  sum %7.2f %7.2f" % (sum(reused), sum(cold)))
    assert sum(reused) < sum(cold), (sum(reused), sum(cold))
