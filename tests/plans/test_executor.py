"""Plan execution vs the reference evaluator, across all three modes."""

import pytest

from repro.ir import IREngine
from repro.plans import (
    HYBRID_MODE,
    SSO_MODE,
    STRICT,
    PlanExecutor,
    build_encoded_plan,
    build_strict_plan,
)
from repro.query import evaluate, parse_query
from repro.rank import STRUCTURE_FIRST
from repro.relax import UNIFORM_WEIGHTS, PenaltyModel, RelaxationSchedule
from repro.backend.stats import DocumentStatistics
from repro.xmark import generate_document


@pytest.fixture(scope="module")
def doc():
    return generate_document(target_bytes=40_000, seed=21)


@pytest.fixture(scope="module")
def ir(doc):
    return IREngine(doc)


@pytest.fixture(scope="module")
def executor(doc, ir):
    return PlanExecutor(doc, ir)


@pytest.fixture(scope="module")
def model(doc, ir):
    return PenaltyModel(DocumentStatistics(doc), ir)


STRICT_QUERIES = [
    "//item[./description/parlist]",
    "//item[./mailbox/mail/text]",
    "//item[./description//listitem]",
    '//item[.contains("gold")]',
    '//item[./mailbox/mail/text[.contains("gold")]]',
    "//item[./name and ./incategory]",
    "//listitem[./text]",
]


class TestStrictMode:
    @pytest.mark.parametrize("query_text", STRICT_QUERIES)
    def test_matches_reference_evaluator(self, doc, ir, executor, query_text):
        query = parse_query(query_text)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        result = executor.run(plan, mode=STRICT)
        got = sorted(a.node_id for a in result.answers)
        oracle = lambda node, expr: ir.satisfies(node, expr)
        expected = sorted(
            n.node_id for n in evaluate(query, doc, contains_oracle=oracle)
        )
        assert got == expected

    def test_exact_answers_have_base_score(self, executor):
        query = parse_query("//item[./description/parlist]")
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        result = executor.run(plan, mode=STRICT)
        assert result.answers
        for answer in result.answers:
            assert answer.score.structural == pytest.approx(plan.base_score)

    def test_attr_predicates_filter(self, executor, doc):
        query = parse_query('//item[@id = "item1"]')
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        result = executor.run(plan, mode=STRICT)
        assert len(result.answers) == 1


class TestEncodedModes:
    @pytest.mark.parametrize("mode", [SSO_MODE, HYBRID_MODE])
    def test_level_zero_equals_strict(self, executor, model, mode):
        query = parse_query("//item[./description/parlist and ./mailbox/mail]")
        schedule = RelaxationSchedule(query, model)
        strict = executor.run(
            build_strict_plan(query, UNIFORM_WEIGHTS), mode=STRICT
        )
        encoded = executor.run(build_encoded_plan(schedule, 0), mode=mode)
        assert sorted(a.node_id for a in strict.answers) == sorted(
            a.node_id for a in encoded.answers
        )

    @pytest.mark.parametrize("mode", [SSO_MODE, HYBRID_MODE])
    def test_encoded_levels_cover_level_queries(self, executor, model, doc, ir, mode):
        """Answers of the plan at level L ⊇ reference answers of every
        schedule query up to L."""
        query = parse_query(
            '//item[./description/parlist and ./mailbox/mail/text[.contains("gold")]]'
        )
        schedule = RelaxationSchedule(query, model)
        oracle = lambda node, expr: ir.satisfies(node, expr)
        for level in range(min(len(schedule), 4) + 1):
            plan = build_encoded_plan(schedule, level)
            result = executor.run(plan, mode=mode)
            got = {a.node_id for a in result.answers}
            for sub_level in range(level + 1):
                expected = {
                    n.node_id
                    for n in evaluate(
                        schedule.level(sub_level).query, doc, contains_oracle=oracle
                    )
                }
                assert expected <= got, (level, sub_level)

    def test_sso_and_hybrid_agree(self, executor, model):
        query = parse_query(
            "//item[./description/parlist/listitem and ./mailbox/mail/text]"
        )
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        sso = executor.run(plan, mode=SSO_MODE)
        hybrid = executor.run(plan, mode=HYBRID_MODE)
        assert {a.node_id: (a.score.structural, a.score.keyword) for a in sso.answers} == {
            a.node_id: (a.score.structural, a.score.keyword)
            for a in hybrid.answers
        }

    def test_exact_answers_keep_base_score_in_relaxed_plan(self, executor, model):
        """Answers satisfying the original query score base even when the
        plan encodes every relaxation (per-answer predicate granularity)."""
        query = parse_query("//item[./description/parlist and ./mailbox/mail]")
        schedule = RelaxationSchedule(query, model)
        strict_ids = {
            a.node_id
            for a in executor.run(
                build_strict_plan(query, UNIFORM_WEIGHTS), mode=STRICT
            ).answers
        }
        plan = build_encoded_plan(schedule, len(schedule))
        relaxed = executor.run(plan, mode=SSO_MODE)
        for answer in relaxed.answers:
            if answer.node_id in strict_ids:
                assert answer.score.structural == pytest.approx(plan.base_score)
            else:
                assert answer.score.structural < plan.base_score


class TestPruning:
    def test_pruned_run_keeps_top_k_intact(self, executor, model):
        query = parse_query(
            "//item[./description/parlist/listitem and ./mailbox/mail/text]"
        )
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        k = 10
        unpruned = executor.run(plan, mode=SSO_MODE)
        pruned = executor.run(plan, k=k, mode=SSO_MODE)

        from repro.rank import rank_answers

        top_unpruned = rank_answers(unpruned.answers, STRUCTURE_FIRST, k)
        top_pruned = rank_answers(pruned.answers, STRUCTURE_FIRST, k)
        assert [a.score.structural for a in top_pruned] == pytest.approx(
            [a.score.structural for a in top_unpruned]
        )

    def test_pruning_reduces_work_or_is_neutral(self, executor, model):
        query = parse_query(
            "//item[./description/parlist/listitem and ./mailbox/mail/text]"
        )
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        pruned = executor.run(plan, k=5, mode=SSO_MODE)
        unpruned = executor.run(plan, mode=SSO_MODE)
        assert pruned.stats.tuples_pruned >= 0
        assert len(pruned.answers) <= len(unpruned.answers) + 1


class TestStats:
    def test_sso_sorts_hybrid_buckets(self, executor, model):
        query = parse_query("//item[./description/parlist and ./mailbox/mail]")
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        sso = executor.run(plan, mode=SSO_MODE)
        hybrid = executor.run(plan, mode=HYBRID_MODE)
        assert sso.stats.sort_operations > 0
        assert sso.stats.sorted_tuples > 0
        assert hybrid.stats.sort_operations == 0
        assert hybrid.stats.buckets_created > 0

    def test_strict_mode_has_no_sorts_or_buckets(self, executor):
        query = parse_query("//item[./name]")
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        result = executor.run(plan, mode=STRICT)
        assert result.stats.sort_operations == 0
        assert result.stats.buckets_created == 0

    def test_intermediate_size_tracked(self, executor):
        query = parse_query("//item[./name]")
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        result = executor.run(plan, mode=STRICT)
        assert result.stats.max_intermediate > 0

    def test_intermediate_size_tracked_without_joins(self, executor, doc):
        """Regression: single-variable plans have no joins, and
        ``max_intermediate`` used to stay 0 because it was only recorded
        inside the join loop. The seeded population is an intermediate
        result too."""
        query = parse_query("//item")
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        assert not plan.joins
        result = executor.run(plan, mode=STRICT)
        assert result.stats.max_intermediate == len(doc.nodes_with_tag("item"))

    def test_dedup_counted_separately_from_pruning(self, executor):
        """Known-answer exclusion is dedup bookkeeping, not score-threshold
        pruning — the two counters must not be conflated."""
        query = parse_query("//item[./name]")
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        full = executor.run(plan, mode=STRICT)
        known = {a.node_id for a in full.answers[:3]}
        rerun = executor.run(plan, mode=STRICT, exclude_answer_ids=known)
        assert rerun.stats.answers_deduped == len(known)
        assert rerun.stats.tuples_pruned == 0

    def test_stats_as_dict_round_trip(self, executor):
        query = parse_query("//item[./name]")
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        stats = executor.run(plan, mode=STRICT).stats
        as_dict = stats.as_dict()
        assert as_dict["tuples_produced"] == stats.tuples_produced
        assert set(as_dict) >= {
            "tuples_produced",
            "tuples_pruned",
            "answers_deduped",
            "max_intermediate",
        }


class TestExecutorTracing:
    def test_phases_recorded_for_joined_plan(self, executor):
        from repro.obs import Tracer

        query = parse_query("//item[./description/parlist]")
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        tracer = Tracer()
        traced = executor.run(plan, mode=SSO_MODE, tracer=tracer)
        untraced = executor.run(plan, mode=SSO_MODE)
        assert [a.node_id for a in traced.answers] == [
            a.node_id for a in untraced.answers
        ]
        snapshot = tracer.snapshot()
        for phase in ("seed", "extend", "checks", "project", "collect"):
            assert phase in snapshot["spans"], phase
            assert snapshot["spans"][phase]["seconds"] >= 0.0
        assert snapshot["spans"]["extend"]["calls"] == len(plan.joins)

    def test_hybrid_mode_records_bucket_phase(self, executor, model):
        from repro.obs import Tracer

        query = parse_query("//item[./description/parlist and ./mailbox/mail]")
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        tracer = Tracer()
        executor.run(plan, mode=HYBRID_MODE, tracer=tracer)
        spans = tracer.snapshot()["spans"]
        assert "bucket" in spans
        assert "sort" not in spans
