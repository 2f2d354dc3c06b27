"""Relaxation steps and the penalty-ordered schedule."""

import pytest

from repro.ir import IREngine
from repro.query import parse_query
from repro.relax import (
    GAMMA,
    KAPPA,
    LAMBDA,
    SIGMA,
    PenaltyModel,
    RelaxationSchedule,
    candidate_steps,
)
from repro.backend.stats import DocumentStatistics
from repro.xmltree import parse
from tests.spec.containment import is_contained_in


@pytest.fixture(scope="module")
def doc():
    return parse(
        "<lib>"
        "<article><section><algorithm>a</algorithm>"
        "<paragraph>xml streaming</paragraph>"
        "<note><paragraph>nested xml</paragraph></note></section></article>"
        "<article><section><paragraph>words</paragraph></section>"
        "<algorithm>b</algorithm></article>"
        "</lib>"
    )


@pytest.fixture(scope="module")
def model(doc):
    return PenaltyModel(DocumentStatistics(doc), IREngine(doc))


class TestCandidateSteps:
    def test_gamma_offered_for_recursive_pairs(self, model):
        # section//paragraph pairs exceed section/paragraph pairs (note
        # nesting), so γ is useful.
        query = parse_query("//article[./section/paragraph]")
        operators = {step.operator for step in candidate_steps(query, model)}
        assert GAMMA in operators

    def test_gamma_skipped_when_useless(self, model):
        # article/section: every ad pair is pc, so γ is replaced by a
        # combined σ/λ drop.
        query = parse_query("//article/section")
        steps = candidate_steps(query, model)
        assert all(step.operator != GAMMA for step in steps)

    def test_combined_drop_for_useless_gamma_leaf(self, model):
        query = parse_query("//article[./section]")
        steps = candidate_steps(query, model)
        assert any(step.operator == LAMBDA for step in steps)

    def test_kappa_for_non_root_contains(self, model):
        query = parse_query('//article[./section[.contains("xml")]]')
        steps = candidate_steps(query, model)
        assert any(step.operator == KAPPA for step in steps)

    def test_no_kappa_for_root_contains(self, model):
        query = parse_query('//article[.contains("xml")]')
        steps = candidate_steps(query, model)
        assert all(step.operator != KAPPA for step in steps)

    def test_leaf_with_contains_not_deletable(self, model):
        query = parse_query('//article[.//paragraph[.contains("xml")]]')
        steps = candidate_steps(query, model)
        assert all(step.operator != LAMBDA for step in steps)

    def test_sigma_for_nested_ad_edges(self, model):
        query = parse_query("//article[./section[.//paragraph]]")
        steps = candidate_steps(query, model)
        sigma_targets = [s.target for s in steps if s.operator == SIGMA]
        assert "$3" in sigma_targets

    def test_penalties_positive(self, model):
        query = parse_query('//article[./section[./paragraph[.contains("xml")]]]')
        for step in candidate_steps(query, model):
            assert step.penalty > 0.0


class TestSchedule:
    def test_level_zero_is_original(self, model):
        query = parse_query("//article[./section/paragraph]")
        schedule = RelaxationSchedule(query, model)
        assert schedule.level(0).query == query
        assert schedule.structural_score(0) == schedule.base_score

    def test_chain_is_monotonically_contained(self, model):
        query = parse_query(
            '//article[./section[./algorithm and ./paragraph[.contains("xml")]]]'
        )
        schedule = RelaxationSchedule(query, model)
        queries = schedule.queries()
        assert len(queries) >= 3
        for narrow, wide in zip(queries, queries[1:]):
            assert is_contained_in(narrow, wide)

    def test_penalties_nondecreasing_scores(self, model):
        query = parse_query(
            '//article[./section[./algorithm and ./paragraph[.contains("xml")]]]'
        )
        schedule = RelaxationSchedule(query, model)
        scores = [schedule.structural_score(i) for i in range(len(schedule) + 1)]
        assert scores == sorted(scores, reverse=True)

    def test_greedy_picks_cheapest_first(self, model):
        query = parse_query(
            '//article[./section[./algorithm and ./paragraph[.contains("xml")]]]'
        )
        schedule = RelaxationSchedule(query, model)
        first_step = schedule.level(1).step
        all_first = candidate_steps(query, model)
        assert first_step.penalty == min(s.penalty for s in all_first)

    def test_max_steps_truncates(self, model):
        query = parse_query(
            '//article[./section[./algorithm and ./paragraph[.contains("xml")]]]'
        )
        full = RelaxationSchedule(query, model)
        short = RelaxationSchedule(query, model, max_steps=2)
        assert len(short) == 2
        assert len(full) > 2

    def test_terminates_on_star_query(self, model):
        schedule = RelaxationSchedule(parse_query("//article"), model)
        assert len(schedule) == 0

    def test_base_score_counts_structural_predicates(self, model):
        query = parse_query("//a[./b and ./c]")
        schedule = RelaxationSchedule(query, model)
        assert schedule.base_score == 2.0

    def test_describe_lists_all_levels(self, model):
        query = parse_query("//article[./section/paragraph]")
        schedule = RelaxationSchedule(query, model)
        text = schedule.describe()
        assert text.count("level") == len(schedule) + 1

    def test_cumulative_penalty_matches_step_sum(self, model):
        query = parse_query(
            '//article[./section[./algorithm and ./paragraph[.contains("xml")]]]'
        )
        schedule = RelaxationSchedule(query, model)
        total = 0.0
        for entry in schedule.entries[1:]:
            total += entry.step.penalty
            assert entry.cumulative_penalty == pytest.approx(total)
