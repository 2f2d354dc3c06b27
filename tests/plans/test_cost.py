"""The lowering's §6 arithmetic: ordering keys, join order, fan-outs."""

import pytest

from repro.errors import EvaluationError
from repro.plans import (
    Alternative,
    Plan,
    PlanJoin,
    build_strict_plan,
    order_joins,
)
from repro.plans.lowering import estimate_pipeline, join_cost_key, join_fanout
from repro.query import parse_query
from repro.relax import UNIFORM_WEIGHTS
from repro.backend.stats import DocumentStatistics
from repro.xmark import generate_document


@pytest.fixture(scope="module")
def doc():
    return generate_document(target_bytes=40_000, seed=21)


@pytest.fixture(scope="module")
def stats(doc):
    return DocumentStatistics(doc)


def _join(var, tag, connect_var, axis="pc", optional=False):
    return PlanJoin(
        var=var,
        tag=tag,
        alternatives=(Alternative(connect_var, axis, 0.0, "strict"),),
        optional_delta=-0.5 if optional else None,
    )


def _plan(joins, root_tag="item"):
    return Plan(
        root_var="v0",
        root_tag=root_tag,
        root_attr_predicates=(),
        joins=tuple(joins),
        checks_by_var={},
        distinguished="v0",
        fallback_chain=(),
        base_score=0.0,
    )


class TestJoinCostKey:
    def test_cheaper_cardinality_first(self):
        rank = {"a": 0, "b": 1}
        cheap = join_cost_key(3, _join("b", "t", "v0"), rank)
        costly = join_cost_key(100, _join("a", "t", "v0"), rank)
        assert cheap < costly

    def test_required_before_optional_among_equals(self):
        rank = {"a": 0, "b": 1}
        required = join_cost_key(5, _join("b", "t", "v0"), rank)
        optional = join_cost_key(5, _join("a", "t", "v0", optional=True), rank)
        assert required < optional

    def test_zero_count_ties_break_by_variable_name(self):
        # Two absent tags must rank by variable name, not plan position:
        # "a" (later in the plan) still precedes "b".
        rank = {"a": 1, "b": 0}
        key_a = join_cost_key(0, _join("a", "ghost1", "v0"), rank)
        key_b = join_cost_key(0, _join("b", "ghost2", "v0"), rank)
        assert key_a < key_b

    def test_nonzero_ties_keep_plan_order(self):
        rank = {"a": 1, "b": 0}
        key_a = join_cost_key(4, _join("a", "t", "v0"), rank)
        key_b = join_cost_key(4, _join("b", "t", "v0"), rank)
        assert key_b < key_a


class TestOrderJoins:
    def test_absent_tags_rank_strictly_cheapest(self, stats):
        plan = _plan([
            _join("v1", "name", "v0"),
            _join("v2", "zzz_absent_b", "v0"),
            _join("v3", "zzz_absent_a", "v0"),
        ])
        assert stats.tag_count("zzz_absent_a") == 0
        ordered = order_joins(plan, stats)
        # Both absent tags come first, deterministically by variable name.
        assert [join.var for join in ordered] == ["v2", "v3", "v1"]

    def test_absent_tag_order_independent_of_plan_position(self, stats):
        forward = _plan([
            _join("v2", "zzz_absent_b", "v0"),
            _join("v3", "zzz_absent_a", "v0"),
        ])
        backward = _plan([
            _join("v3", "zzz_absent_a", "v0"),
            _join("v2", "zzz_absent_b", "v0"),
        ])
        assert [j.var for j in order_joins(forward, stats)] == [
            j.var for j in order_joins(backward, stats)
        ]

    def test_dependencies_respected(self, stats):
        query = parse_query(
            "//item[./description/parlist/listitem and ./mailbox/mail]"
        )
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        ordered = order_joins(plan, stats)
        bound = {plan.root_var}
        for join in ordered:
            for alt in join.alternatives:
                assert alt.connect_var in bound, join.var
            bound.add(join.var)

    def test_cyclic_dependencies_raise(self, stats):
        plan = _plan([
            _join("v1", "name", "v2"),
            _join("v2", "name", "v1"),
        ])
        with pytest.raises(EvaluationError):
            order_joins(plan, stats)


class TestStaticCostModel:
    """§6's uniform-independence estimates, read off the corpus counts."""

    def test_cardinality_is_tag_count(self, stats, doc):
        assert estimate_pipeline(_plan([]), stats) == [doc.count("item")]
        assert estimate_pipeline(_plan([], "zzz_absent"), stats) == [0.0]

    def test_fanout_is_pairs_per_base(self, stats):
        expected = stats.pc_count("item", "name") / stats.tag_count("item")
        assert join_fanout(stats, "item", "pc", "name") == pytest.approx(expected)
        plan = _plan([_join("v1", "name", "v0")])
        assert estimate_pipeline(plan, stats)[1] == pytest.approx(
            stats.pc_count("item", "name")
        )

    def test_fanout_zero_base(self, stats):
        assert join_fanout(stats, "zzz_absent", "pc", "name") == 0.0
