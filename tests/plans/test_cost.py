"""The cost-model seam: ordering keys, feedback statistics, measured model."""

import threading

import pytest

from repro.errors import EvaluationError
from repro.plans import (
    Alternative,
    FeedbackStatistics,
    MeasuredCostModel,
    Plan,
    PlanJoin,
    StaticCostModel,
    build_strict_plan,
    order_joins,
)
from repro.plans.cost import join_cost_key
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
        model = StaticCostModel(stats)
        plan = _plan([
            _join("v1", "name", "v0"),
            _join("v2", "zzz_absent_b", "v0"),
            _join("v3", "zzz_absent_a", "v0"),
        ])
        assert stats.tag_count("zzz_absent_a") == 0
        ordered = order_joins(plan, model)
        # Both absent tags come first, deterministically by variable name.
        assert [join.var for join in ordered] == ["v2", "v3", "v1"]

    def test_absent_tag_order_independent_of_plan_position(self, stats):
        model = StaticCostModel(stats)
        forward = _plan([
            _join("v2", "zzz_absent_b", "v0"),
            _join("v3", "zzz_absent_a", "v0"),
        ])
        backward = _plan([
            _join("v3", "zzz_absent_a", "v0"),
            _join("v2", "zzz_absent_b", "v0"),
        ])
        assert [j.var for j in order_joins(forward, model)] == [
            j.var for j in order_joins(backward, model)
        ]

    def test_dependencies_respected(self, stats):
        model = StaticCostModel(stats)
        query = parse_query(
            "//item[./description/parlist/listitem and ./mailbox/mail]"
        )
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        ordered = order_joins(plan, model)
        bound = {plan.root_var}
        for join in ordered:
            for alt in join.alternatives:
                assert alt.connect_var in bound, join.var
            bound.add(join.var)

    def test_cyclic_dependencies_raise(self, stats):
        model = StaticCostModel(stats)
        plan = _plan([
            _join("v1", "name", "v2"),
            _join("v2", "name", "v1"),
        ])
        with pytest.raises(EvaluationError):
            order_joins(plan, model)


class TestStaticCostModel:
    def test_cardinality_is_tag_count(self, stats, doc):
        model = StaticCostModel(stats)
        assert model.tag_cardinality("item") == doc.count("item")
        assert model.tag_cardinality("zzz_absent") == 0

    def test_fanout_is_pairs_per_base(self, stats):
        model = StaticCostModel(stats)
        expected = stats.pc_count("item", "name") / stats.tag_count("item")
        assert model.join_fanout("item", "pc", "name") == pytest.approx(expected)

    def test_fanout_zero_base(self, stats):
        model = StaticCostModel(stats)
        assert model.join_fanout("zzz_absent", "pc", "name") == 0.0

    def test_fingerprint_constant(self, stats):
        model = StaticCostModel(stats)
        assert model.fingerprint() == model.fingerprint()
        assert model.fingerprint() != StaticCostModel(
            stats, operator_policy="twig"
        ).fingerprint()

    def test_rejects_unknown_policy(self, stats):
        with pytest.raises(ValueError):
            StaticCostModel(stats, operator_policy="quantum")


class TestFeedbackStatistics:
    def test_recording_never_advances_the_epoch(self):
        feedback = FeedbackStatistics()
        for _ in range(300):  # well past any sample-count threshold
            feedback.record_pool("item", 10)
            feedback.record_join("item", "pc", "name", bases=5, produced=10)
        assert feedback.epoch == 0
        assert feedback.info() == {"pools": 1, "fanouts": 1, "epoch": 0}

    def test_each_refresh_with_data_is_one_epoch(self):
        feedback = FeedbackStatistics()
        feedback.record_pool("item", 10)
        feedback.refresh()
        feedback.record_pool("item", 10)
        feedback.refresh()
        assert feedback.epoch == 2

    def test_pool_mean(self):
        feedback = FeedbackStatistics()
        feedback.record_pool("item", 10)
        feedback.record_pool("item", 20)
        assert feedback.pool_size("item") == pytest.approx(15.0)
        assert feedback.pool_size("unseen") is None

    def test_fanout_mean(self):
        feedback = FeedbackStatistics()
        feedback.record_join("item", "pc", "name", bases=10, produced=25)
        feedback.record_join("item", "pc", "name", bases=10, produced=15)
        assert feedback.fanout("item", "pc", "name") == pytest.approx(2.0)
        assert feedback.fanout("item", "ad", "name") is None

    def test_zero_base_joins_ignored(self):
        feedback = FeedbackStatistics()
        feedback.record_join("item", "pc", "name", bases=0, produced=0)
        assert feedback.fanout("item", "pc", "name") is None

    def test_refresh_advances_only_with_data(self):
        feedback = FeedbackStatistics()
        feedback.refresh()
        assert feedback.epoch == 0
        feedback.record_pool("item", 10)
        feedback.refresh()
        assert feedback.epoch == 1

    def test_clear_forgets_and_advances(self):
        feedback = FeedbackStatistics()
        feedback.record_pool("item", 10)
        feedback.clear()
        assert feedback.pool_size("item") is None
        assert feedback.epoch == 1
        feedback.clear()  # idempotent on empty
        assert feedback.epoch == 1

    def test_concurrent_recording(self):
        feedback = FeedbackStatistics()

        def record():
            for _ in range(200):
                feedback.record_pool("item", 10)
                feedback.record_join("item", "pc", "name", 5, 10)

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert feedback.pool_size("item") == pytest.approx(10.0)
        assert feedback.fanout("item", "pc", "name") == pytest.approx(2.0)


class TestMeasuredCostModel:
    def test_cold_model_matches_static(self, stats):
        static = StaticCostModel(stats)
        measured = MeasuredCostModel(stats)
        assert measured.tag_cardinality("item") == static.tag_cardinality("item")
        assert measured.join_fanout("item", "pc", "name") == pytest.approx(
            static.join_fanout("item", "pc", "name")
        )

    def test_observations_override_static(self, stats):
        measured = MeasuredCostModel(stats)
        measured.feedback.record_pool("item", 3)
        measured.feedback.record_join("item", "pc", "name", bases=3, produced=30)
        assert measured.tag_cardinality("item") == pytest.approx(3.0)
        assert measured.join_fanout("item", "pc", "name") == pytest.approx(10.0)
        # Unmeasured keys still fall back to the static estimate.
        assert measured.tag_cardinality("mailbox") == stats.tag_count("mailbox")

    def test_fingerprint_tracks_the_epoch(self, stats):
        measured = MeasuredCostModel(stats)
        cold = measured.fingerprint()
        for _ in range(200):
            measured.feedback.record_pool("item", 3)
        assert measured.fingerprint() == cold  # observing is not churn
        measured.feedback.refresh()
        refreshed = measured.fingerprint()
        assert refreshed != cold
        measured.feedback.clear()
        assert measured.fingerprint() not in (cold, refreshed)

    def test_shared_feedback_instance(self, stats):
        feedback = FeedbackStatistics()
        first = MeasuredCostModel(stats, feedback=feedback)
        second = MeasuredCostModel(stats, feedback=feedback)
        feedback.record_pool("item", 7)
        assert first.tag_cardinality("item") == second.tag_cardinality("item")
