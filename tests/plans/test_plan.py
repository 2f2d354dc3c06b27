"""Plan construction: strict plans and relaxation-encoded plans (Fig. 8)."""

import pytest

from repro.ir import IREngine
from repro.plans import build_encoded_plan, build_strict_plan
from repro.query import parse_query
from repro.relax import UNIFORM_WEIGHTS, PenaltyModel, RelaxationSchedule
from repro.backend.stats import DocumentStatistics
from repro.xmltree import parse


@pytest.fixture(scope="module")
def doc():
    return parse(
        "<lib>"
        "<article><section><algorithm>a</algorithm>"
        "<paragraph>xml streaming</paragraph>"
        "<note><paragraph>nested xml streaming</paragraph></note>"
        "</section></article>"
        "<article><section><paragraph>words</paragraph></section>"
        "<algorithm>b</algorithm></article>"
        "</lib>"
    )


@pytest.fixture(scope="module")
def model(doc):
    return PenaltyModel(DocumentStatistics(doc), IREngine(doc))


QUERY = '//article[./section[./algorithm and ./paragraph[.contains("xml")]]]'


class TestStrictPlan:
    def test_one_join_per_non_root_var(self):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        assert plan.join_count() == 3
        assert plan.root_var == "$1"

    def test_single_strict_alternatives(self):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        for join in plan.joins:
            assert len(join.alternatives) == 1
            assert join.alternatives[0].label == "strict"
            assert not join.optional

    def test_base_score_is_edge_weight_sum(self):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        assert plan.base_score == 3.0

    def test_contains_checks_single_level(self):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        checks = plan.checks_by_var["$4"]
        assert len(checks) == 1
        assert len(checks[0].levels) == 1
        assert checks[0].levels[0].delta == 0.0

    def test_describe_mentions_every_join(self):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        text = plan.describe()
        for var in ("$2", "$3", "$4"):
            assert var in text


class TestEncodedPlan:
    def test_level_zero_equals_strict_shape(self, model):
        query = parse_query(QUERY)
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, 0)
        for join in plan.joins:
            assert len(join.alternatives) == 1
            assert not join.optional

    def test_alternatives_accumulate_with_levels(self, model):
        query = parse_query(QUERY)
        schedule = RelaxationSchedule(query, model)
        sizes = []
        for level in range(len(schedule) + 1):
            plan = build_encoded_plan(schedule, level)
            total = sum(len(j.alternatives) for j in plan.joins)
            optional = sum(1 for j in plan.joins if j.optional)
            checks = sum(
                len(c.levels)
                for checks in plan.checks_by_var.values()
                for c in checks
            )
            sizes.append(total + optional + checks)
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_alternative_deltas_decrease(self, model):
        query = parse_query(QUERY)
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        for join in plan.joins:
            deltas = [alt.delta for alt in join.alternatives]
            assert deltas == sorted(deltas, reverse=True)
            if join.optional:
                assert join.optional_delta <= deltas[-1]

    def test_contains_chain_levels_are_ancestors(self, model):
        query = parse_query(QUERY)
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        for checks in plan.checks_by_var.values():
            for check in checks:
                assert check.levels[0].delta == 0.0
                deltas = [level.delta for level in check.levels]
                assert deltas == sorted(deltas, reverse=True)

    def test_invalid_level_raises(self, model):
        from repro.errors import EvaluationError

        query = parse_query(QUERY)
        schedule = RelaxationSchedule(query, model)
        with pytest.raises(EvaluationError):
            build_encoded_plan(schedule, len(schedule) + 1)


class TestGrowthTables:
    def test_monotone_growth(self, model):
        query = parse_query(QUERY)
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        growth_ss, growth_ks, _guaranteed, _defined = plan.growth_tables()
        assert growth_ss == sorted(growth_ss, reverse=True)
        assert growth_ks == sorted(growth_ks, reverse=True)
        assert growth_ss[-1] == 0.0
        assert growth_ks[-1] == 0.0

    def test_growth_at_start_covers_base(self, model):
        query = parse_query(QUERY)
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, 0)
        growth_ss, growth_ks, _g, _d = plan.growth_tables()
        assert growth_ss[0] == pytest.approx(plan.base_score)
        assert growth_ks[0] == pytest.approx(1.0)  # one contains predicate

    def test_guarantee_defined_only_over_optional_suffix(self, model):
        query = parse_query(QUERY)
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        _ss, _ks, _guaranteed, defined = plan.growth_tables()
        assert defined[-1]  # after all joins, trivially defined
