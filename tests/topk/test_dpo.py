"""DPO: level-by-level evaluation, dedup, early stop."""

import pytest

from repro.query import parse_query
from repro.rank import COMBINED, KEYWORD_FIRST, STRUCTURE_FIRST
from repro.topk import DPO, QueryContext
from repro.xmark import generate_document
from tests.spec.evaluate import evaluate


@pytest.fixture(scope="module")
def context():
    return QueryContext(generate_document(target_bytes=40_000, seed=21))


@pytest.fixture(scope="module")
def dpo(context):
    return DPO(context)


QUERY = "//item[./description/parlist and ./mailbox/mail/text]"


class TestBasics:
    def test_returns_at_most_k(self, dpo):
        result = dpo.top_k(parse_query(QUERY), 5)
        assert len(result.answers) <= 5
        assert result.algorithm == "DPO"

    def test_exact_answers_come_first(self, context, dpo):
        query = parse_query(QUERY)
        oracle = lambda node, expr: context.ir.satisfies(node, expr)
        exact_ids = {
            n.node_id
            for n in evaluate(query, context.document, contains_oracle=oracle)
        }
        k = min(len(exact_ids), 5)
        result = dpo.top_k(query, k)
        assert {a.node_id for a in result.answers} <= exact_ids

    def test_scores_descend(self, dpo):
        result = dpo.top_k(parse_query(QUERY), 40)
        scores = [a.score.structural for a in result.answers]
        assert scores == sorted(scores, reverse=True)

    def test_no_duplicate_answers(self, dpo):
        result = dpo.top_k(parse_query(QUERY), 60)
        ids = [a.node_id for a in result.answers]
        assert len(ids) == len(set(ids))

    def test_relaxation_levels_recorded(self, dpo):
        result = dpo.top_k(parse_query(QUERY), 80)
        levels = [a.relaxation_level for a in result.answers]
        assert levels == sorted(levels) or len(set(levels)) == 1


class TestStopping:
    def test_stops_once_k_reached_structure_first(self, context, dpo):
        query = parse_query(QUERY)
        oracle = lambda node, expr: context.ir.satisfies(node, expr)
        exact = len(evaluate(query, context.document, contains_oracle=oracle))
        assert exact >= 2
        result = dpo.top_k(query, 2, scheme=STRUCTURE_FIRST)
        assert result.levels_evaluated == 1  # K met at level 0

    def test_walks_levels_when_needed(self, context, dpo):
        query = parse_query(QUERY)
        oracle = lambda node, expr: context.ir.satisfies(node, expr)
        exact = len(evaluate(query, context.document, contains_oracle=oracle))
        result = dpo.top_k(query, exact + 10, scheme=STRUCTURE_FIRST)
        assert result.levels_evaluated > 1

    def test_keyword_first_evaluates_all_levels(self, context, dpo):
        query = parse_query(QUERY)
        schedule = context.schedule(query)
        result = dpo.top_k(query, 1, scheme=KEYWORD_FIRST)
        assert result.levels_evaluated == len(schedule) + 1

    def test_combined_walks_past_k_until_cutoff(self, dpo):
        query = parse_query(
            '//item[./description/parlist and ./mailbox/mail/text[.contains("gold")]]'
        )
        structure = dpo.top_k(query, 2, scheme=STRUCTURE_FIRST)
        combined = dpo.top_k(query, 2, scheme=COMBINED)
        assert combined.levels_evaluated >= structure.levels_evaluated

    def test_max_relaxations_caps_schedule(self, dpo):
        result = dpo.top_k(parse_query(QUERY), 500, max_relaxations=1)
        assert result.levels_evaluated <= 2


class TestRecomputationAvoidance:
    def test_excluded_answers_cut_tuple_flow(self, context):
        """§5.2.2: evaluating level i excludes answers of levels < i inside
        the executor, so later levels process strictly fewer tuples than a
        fresh evaluation of the same query would."""
        from repro.plans.executor import STRICT
        from repro.plans.plan import build_strict_plan

        query = parse_query(QUERY)
        schedule = context.schedule(query)
        assert len(schedule) >= 1
        level_one = schedule.level(1).query
        plan = build_strict_plan(level_one, context.weights)

        fresh = context.executor.run(plan, mode=STRICT)
        exact_ids = {
            a.node_id
            for a in context.executor.run(
                build_strict_plan(query, context.weights), mode=STRICT
            ).answers
        }
        excluded = context.executor.run(
            plan, mode=STRICT, exclude_answer_ids=exact_ids
        )
        # Known-answer drops are dedup work, not score-threshold pruning.
        assert excluded.stats.answers_deduped >= len(exact_ids)
        assert excluded.stats.tuples_pruned == 0
        got = {a.node_id for a in excluded.answers}
        assert got == {a.node_id for a in fresh.answers} - exact_ids


class TestCompileTimeScores:
    def test_level_answers_share_scores(self, context, dpo):
        query = parse_query(QUERY)
        result = dpo.top_k(query, 100)
        schedule = context.schedule(query)
        for answer in result.answers:
            expected = schedule.structural_score(answer.relaxation_level)
            assert answer.score.structural == pytest.approx(expected)
