"""Executor corner cases exercised with hand-built plans."""

import pytest

from repro.ir import IREngine, Term
from repro.plans import (
    Alternative,
    ContainsCheck,
    ContainsLevel,
    HYBRID_MODE,
    Plan,
    PlanExecutor,
    PlanJoin,
    SSO_MODE,
    STRICT,
)
from repro.plans import executor as executor_module
from repro.xmltree import parse


@pytest.fixture()
def doc():
    return parse(
        "<r>"
        "<a><b>gold</b></a>"
        "<a><c>gold</c></a>"
        "<a><b>plain</b></a>"
        "</r>"
    )


@pytest.fixture()
def executor(doc):
    return PlanExecutor(doc, IREngine(doc))


def make_plan(joins, checks=None, distinguished="$1", fallback=(), base=None):
    base_score = base if base is not None else sum(
        j.alternatives[0].delta for j in joins
    )
    return Plan(
        root_var="$1",
        root_tag="a",
        root_attr_predicates=(),
        joins=tuple(joins),
        checks_by_var=checks or {},
        distinguished=distinguished,
        fallback_chain=tuple(fallback),
        base_score=base_score,
    )


class TestOptionalJoins:
    def test_unbound_optional_var_survives(self, executor, doc):
        plan = make_plan(
            [
                PlanJoin(
                    var="$2",
                    tag="b",
                    alternatives=(Alternative("$1", "pc", 1.0, "strict"),),
                    optional_delta=0.25,
                )
            ]
        )
        result = executor.run(plan, mode=STRICT)
        # All three <a> elements answer; the one without <b> scores 0.25.
        assert len(result.answers) == 3
        scores = sorted(a.score.structural for a in result.answers)
        assert scores == pytest.approx([0.25, 1.0, 1.0])

    def test_optional_distinguished_falls_back_to_ancestor(self, executor):
        plan = make_plan(
            [
                PlanJoin(
                    var="$2",
                    tag="b",
                    alternatives=(Alternative("$1", "pc", 1.0, "strict"),),
                    optional_delta=0.0,
                )
            ],
            distinguished="$2",
            fallback=("$1",),
        )
        result = executor.run(plan, mode=STRICT)
        # Two answers are <b> nodes; the <a> without <b> answers as itself.
        tags = sorted(a.node.tag for a in result.answers)
        assert tags == ["a", "b", "b"]


class TestContainsChains:
    def test_chain_falls_back_to_bound_ancestor(self, executor):
        expr = Term("gold")
        plan = make_plan(
            [
                PlanJoin(
                    var="$2",
                    tag="b",
                    alternatives=(Alternative("$1", "pc", 1.0, "strict"),),
                    optional_delta=0.0,
                )
            ],
            checks={
                "$2": [
                    ContainsCheck(
                        ftexpr=expr,
                        levels=(
                            ContainsLevel("$2", 0.0),
                            ContainsLevel("$1", -0.5),
                        ),
                        attach_var="$2",
                    )
                ]
            },
        )
        result = executor.run(plan, mode=STRICT)
        by_score = sorted(round(a.score.structural, 2) for a in result.answers)
        # a1: b has gold -> 1.0; a2: no b, a has gold via c -> -0.5;
        # a3: b plain, a plain -> dies.
        assert by_score == [-0.5, 1.0]

    def test_failed_chain_kills_tuple(self, executor):
        expr = Term("platinum")
        plan = make_plan(
            [
                PlanJoin(
                    var="$2",
                    tag="b",
                    alternatives=(Alternative("$1", "pc", 1.0, "strict"),),
                )
            ],
            checks={
                "$2": [
                    ContainsCheck(
                        ftexpr=expr,
                        levels=(ContainsLevel("$2", 0.0),),
                        attach_var="$2",
                    )
                ]
            },
        )
        result = executor.run(plan, mode=STRICT)
        assert result.answers == []
        assert result.stats.tuples_failed > 0


class TestAlternativeCredit:
    def test_candidate_credited_with_best_alternative(self, executor, doc):
        # pc and ad both match direct children; the pc (better) delta wins.
        plan = make_plan(
            [
                PlanJoin(
                    var="$2",
                    tag="b",
                    alternatives=(
                        Alternative("$1", "pc", 1.0, "strict"),
                        Alternative("$1", "ad", 0.5, "γ"),
                    ),
                )
            ]
        )
        result = executor.run(plan, mode=SSO_MODE)
        for answer in result.answers:
            assert answer.score.structural == pytest.approx(1.0)

    def test_deeper_matches_take_relaxed_credit(self, executor):
        nested = parse("<r><a><x><b>t</b></x></a></r>")
        executor = PlanExecutor(nested, IREngine(nested))
        plan = Plan(
            root_var="$1",
            root_tag="a",
            root_attr_predicates=(),
            joins=(
                PlanJoin(
                    var="$2",
                    tag="b",
                    alternatives=(
                        Alternative("$1", "pc", 1.0, "strict"),
                        Alternative("$1", "ad", 0.5, "γ"),
                    ),
                ),
            ),
            checks_by_var={},
            distinguished="$1",
            fallback_chain=(),
            base_score=1.0,
        )
        result = executor.run(plan, mode=SSO_MODE)
        assert len(result.answers) == 1
        assert result.answers[0].score.structural == pytest.approx(0.5)


class TestPruneEpsilonTieSlack:
    """The documented exception to exact threshold pruning: the
    ``PRUNE_EPSILON`` tie slack.  A guarantee and the finished tuple it was
    registered for add the same deltas in different orders, so they can
    differ in the last ulp; without the slack an answer is pruned against
    its own guarantee."""

    @pytest.fixture()
    def tied(self):
        doc = parse("<r>" + "<a/>" * 5 + "</r>")
        plan = make_plan([
            PlanJoin(
                var=var,
                tag=tag,
                alternatives=(Alternative("$1", "pc", 1.0, "strict"),),
                optional_delta=delta,
            )
            for var, tag, delta in (
                ("$2", "x", 0.3), ("$3", "y", 0.2), ("$4", "z", 0.1),
            )
        ])
        # Registered after the first join: own score + guaranteed remainder.
        assert 0.3 + (0.1 + 0.2) == 0.6000000000000001
        # What the same tuple scores once the pipeline has added them up.
        assert (0.3 + 0.2) + 0.1 == 0.6
        return PlanExecutor(doc, IREngine(doc)), plan

    @pytest.mark.parametrize("mode", [SSO_MODE, HYBRID_MODE])
    def test_answers_survive_their_own_guarantee(self, tied, mode):
        executor, plan = tied
        result = executor.run(plan, k=3, mode=mode)
        assert len(result.answers) == 5
        assert {a.score.structural for a in result.answers} == {0.6}
        assert result.stats.tuples_pruned == 0

    @pytest.mark.parametrize("mode", [SSO_MODE, HYBRID_MODE])
    def test_without_the_slack_the_tie_loses_every_answer(
            self, tied, mode, monkeypatch):
        executor, plan = tied
        monkeypatch.setattr(executor_module, "PRUNE_EPSILON", 0.0)
        result = executor.run(plan, k=3, mode=mode)
        assert result.answers == []
        assert result.stats.tuples_pruned == 5
