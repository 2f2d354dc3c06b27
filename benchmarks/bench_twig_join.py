"""Twig-join ablation: holistic operator vs binary pipeline, static vs measured.

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

Two CI gates ride on the medians:

- ``test_twig_speedup_gate`` — the holistic operator is ≥1.3× the binary
  pipeline's median on the branchy pattern;
- ``test_measured_not_slower_than_static`` — plans lowered through the
  warmed :class:`MeasuredCostModel` are never slower than the §6 static
  ordering (small tolerance for timer noise; the measured model must pay
  for its bookkeeping with at-least-as-good plans).
"""

import os
import statistics
from time import perf_counter

import pytest

from repro.ir import IREngine
from repro.plans import (
    STRICT,
    MeasuredCostModel,
    PlanExecutor,
    StaticCostModel,
    build_strict_plan,
    lower_plan,
)
from repro.plans.physical import BINARY, TWIG
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


def _physical(stats, policy):
    plan = build_strict_plan(parse_query(BRANCHY_QUERY), UNIFORM_WEIGHTS)
    return lower_plan(plan, StaticCostModel(stats, operator_policy=policy))


@pytest.fixture(scope="module")
def twig_plan(stats):
    physical = _physical(stats, "twig")
    assert physical.operator == TWIG
    return physical


@pytest.fixture(scope="module")
def binary_plan(stats):
    physical = _physical(stats, "binary")
    assert physical.operator == BINARY
    return physical


def _median_seconds(executor, physical, rounds=ROUNDS):
    executor.run(physical, mode=STRICT)  # warm the IR postings
    samples = []
    for _ in range(rounds):
        start = perf_counter()
        executor.run(physical, mode=STRICT)
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


def test_measured_not_slower_than_static(doc, ir, stats):
    """Feedback-driven lowering never loses to the §6 static ordering.

    The measured model is warmed on the workload itself (the executor
    records true pool sizes and fan-outs), refreshed so the observations
    take effect, and then re-lowers the plan.  Its median must stay
    within noise of the static model's — measured numbers can only
    improve the ordering and operator choice, never degrade them.
    """
    plan = build_strict_plan(parse_query(BRANCHY_QUERY), UNIFORM_WEIGHTS)
    static_physical = lower_plan(plan, StaticCostModel(stats))

    measured = MeasuredCostModel(stats)
    warm_executor = PlanExecutor(doc, ir, feedback=measured.feedback)
    for _ in range(3):
        warm_executor.run(lower_plan(plan, measured), mode=STRICT)
    measured.feedback.refresh()
    measured_physical = lower_plan(plan, measured)

    executor = PlanExecutor(doc, ir)
    static_median = _median_seconds(executor, static_physical)
    measured_median = _median_seconds(executor, measured_physical)
    assert measured_median <= static_median * 1.15, (
        "measured-cost plan %.1fms vs static %.1fms"
        % (measured_median * 1e3, static_median * 1e3)
    )
