"""Selectivity-based join ordering."""

import pytest

from repro.plans import build_strict_plan, lower_plan
from repro.query import parse_query
from repro.relax import UNIFORM_WEIGHTS, RelaxationSchedule
from repro.backend.stats import DocumentStatistics
from repro.topk.base import QueryContext
from repro.xmark import generate_document
from tests.properties.test_property_physical import (
    assert_lowering_invisible,
    encoded_plans,
    strict_plans,
)


@pytest.fixture(scope="module")
def doc():
    return generate_document(target_bytes=40_000, seed=21)


@pytest.fixture(scope="module")
def stats(doc):
    return DocumentStatistics(doc)


@pytest.fixture(scope="module")
def context(doc):
    return QueryContext(doc)


QUERY = (
    "//item[./description/parlist/listitem and ./mailbox/mail/text and ./name]"
)


class TestOrdering:
    def test_dependencies_respected(self, stats):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        reordered = lower_plan(plan, stats)
        bound = {plan.root_var}
        for join in reordered.joins:
            for alt in join.alternatives:
                assert alt.connect_var in bound, join.var
            bound.add(join.var)

    def test_same_joins_possibly_new_order(self, stats):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        reordered = lower_plan(plan, stats)
        assert sorted(j.var for j in reordered.joins) == sorted(
            j.var for j in plan.joins
        )

    def test_selective_tags_come_early(self, stats, doc):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        reordered = lower_plan(plan, stats)
        # Among the direct children of item, the rarest tag should precede
        # the most common one whenever dependencies allow.
        direct = [
            j for j in reordered.joins
            if j.alternatives[0].connect_var == plan.root_var
        ]
        counts = [doc.count(j.tag) for j in direct]
        assert counts == sorted(counts)

    def test_deterministic(self, stats):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        first = lower_plan(plan, stats)
        second = lower_plan(plan, stats)
        assert [j.var for j in first.joins] == [j.var for j in second.joins]


class TestCorrectnessUnderReordering:
    """The lowering-is-invisible property on a branchy XMark query whose
    joins the lowering does move."""

    def test_strict_answers_unchanged(self, context):
        schedule = RelaxationSchedule(parse_query(QUERY), context.penalties)
        plans = strict_plans(context, schedule)
        assert any(
            lower_plan(plan, context.statistics).joins != plan.joins
            for plan in plans
        )
        assert_lowering_invisible(context, plans, k=10)

    def test_encoded_answers_and_scores_unchanged(self, context):
        schedule = RelaxationSchedule(parse_query(QUERY), context.penalties)
        assert_lowering_invisible(context, encoded_plans(schedule), k=10)
