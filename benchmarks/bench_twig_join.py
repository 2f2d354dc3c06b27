"""Twig-join ablation: holistic operator vs binary pipeline.

The holistic twig operator replaces the per-intermediate-tuple cost of the
binary pipeline with a constant number of passes over the candidate pools,
so a *branchy* descendant-heavy pattern whose fan-out sits on **inner**
nodes — many parlists and mails per item, each read by the join below it —
is where it must earn its keep.  (Fan-out on the *leaves* is no longer
such a case: the binary pipeline runs a leaf nobody reads as a semi-join,
one tuple per input, and on ``//item[.//listitem and .//text and .//mail
and .//incategory]`` the two operators are level; ROADMAP item 2 has the
table.)  Caching is off throughout: the timing loops re-run the identical
plan, and any eval-cache hit would measure the cache, not the operator.

One CI gate rides on the medians: ``test_twig_speedup_gate`` — the holistic
operator is ≥1.3× the binary pipeline's median on the branchy pattern.
"""

import os
import statistics
from dataclasses import replace
from time import perf_counter

import pytest

from repro.ir import IREngine
from repro.plans import STRICT, PlanExecutor, build_strict_plan, lower_plan
from repro.plans.plan import BINARY, TWIG
from repro.query import parse_query
from repro.relax import UNIFORM_WEIGHTS
from repro.backend.stats import DocumentStatistics

from benchmarks.harness import document_for

SIZE = os.environ.get("FLEXPATH_BENCH_SIZE", "10MB")

#: Branchy, descendant-heavy, fan-out on the inner nodes: the binary
#: pipeline materializes a tuple per (item, parlist) and per (item, mail)
#: before each leaf collapses them, while the twig operator passes over
#: each pool once.
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
    return lower_plan(plan, stats)


@pytest.fixture(scope="module")
def twig_plan(lowered):
    return replace(lowered, operator=TWIG)


@pytest.fixture(scope="module")
def binary_plan(lowered):
    return replace(lowered, operator=BINARY)


def _median_seconds(executor, plan, rounds=ROUNDS):
    executor.run(plan, mode=STRICT)  # warm the IR postings
    samples = []
    for _ in range(rounds):
        start = perf_counter()
        executor.run(plan, mode=STRICT)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def test_twig_holistic_join(benchmark, executor, twig_plan):
    result = benchmark.pedantic(
        lambda: executor.run(twig_plan, mode=STRICT),
        rounds=ROUNDS,
        warmup_rounds=1,
    )
    assert result.answers
    benchmark.extra_info["operator"] = "twig"
    benchmark.extra_info["answers"] = len(result.answers)


def test_binary_pipeline(benchmark, executor, binary_plan):
    result = benchmark.pedantic(
        lambda: executor.run(binary_plan, mode=STRICT),
        rounds=ROUNDS,
        warmup_rounds=1,
    )
    assert result.answers
    benchmark.extra_info["operator"] = "binary"
    benchmark.extra_info["answers"] = len(result.answers)


def test_twig_speedup_gate(executor, twig_plan, binary_plan):
    """The issue's ablation gate: twig ≥1.3× the binary pipeline."""
    twig = _median_seconds(executor, twig_plan)
    binary = _median_seconds(executor, binary_plan)
    speedup = binary / twig
    assert speedup >= 1.3, (
        "holistic twig join only %.2fx faster than the binary pipeline"
        " (binary %.1fms, twig %.1fms)"
        % (speedup, binary * 1e3, twig * 1e3)
    )


def test_twig_answers_match_binary(executor, twig_plan, binary_plan):
    """The speedup is not bought with answers."""
    twig = executor.run(twig_plan, mode=STRICT)
    binary = executor.run(binary_plan, mode=STRICT)
    assert sorted(
        (a.node_id, round(a.score.structural, 9), round(a.score.keyword, 9))
        for a in twig.answers
    ) == sorted(
        (a.node_id, round(a.score.structural, 9), round(a.score.keyword, 9))
        for a in binary.answers
    )
