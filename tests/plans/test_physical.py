"""Physical lowering: eligibility, operator choice, twig/binary equivalence."""

import pickle

import pytest

from repro.compiled import compile_query
from repro.ir import IREngine
from repro.obs.metrics import REGISTRY
from repro.plans import (
    HYBRID_MODE,
    SSO_MODE,
    STRICT,
    PhysicalPlan,
    PlanExecutor,
    StaticCostModel,
    build_encoded_plan,
    build_strict_plan,
    lower_plan,
    twig_eligible,
)
from repro.plans.physical import BINARY, TWIG
from repro.query import parse_query
from repro.rank import STRUCTURE_FIRST
from repro.relax import UNIFORM_WEIGHTS, PenaltyModel, RelaxationSchedule
from repro.backend.stats import DocumentStatistics
from repro.topk.base import QueryContext
from repro.xmark import generate_document


@pytest.fixture(scope="module")
def doc():
    return generate_document(target_bytes=40_000, seed=21)


@pytest.fixture(scope="module")
def ir(doc):
    return IREngine(doc)


@pytest.fixture(scope="module")
def stats(doc):
    return DocumentStatistics(doc)


@pytest.fixture(scope="module")
def executor(doc, ir):
    return PlanExecutor(doc, ir)


@pytest.fixture(scope="module")
def model(doc, ir, stats):
    return PenaltyModel(stats, ir)


TWIG_QUERIES = [
    "//item[./description/parlist]",
    "//item[./mailbox/mail/text]",
    "//item[./description//listitem]",
    '//item[.contains("gold")]',
    '//item[./mailbox/mail/text[.contains("gold")]]',
    "//item[./name and ./incategory]",
    '//item[./description//keyword and ./mailbox/mail[.contains("ship")]]',
    "//listitem[./text]",
]


def _ranked(result):
    return sorted(
        (a.node_id, round(a.score.structural, 9), round(a.score.keyword, 9))
        for a in result.answers
    )


class TestTwigEligibility:
    def test_strict_plans_eligible(self, model):
        for text in TWIG_QUERIES:
            plan = build_strict_plan(parse_query(text), UNIFORM_WEIGHTS)
            assert twig_eligible(plan), text

    def test_encoded_level_zero_eligibility(self, model):
        query = parse_query("//item[./description/parlist]")
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, 0)
        # Level 0 has no relaxation alternatives; whether it qualifies
        # depends only on the shape, which here is conjunctive.
        assert twig_eligible(plan)

    def test_encoded_relaxed_levels_ineligible(self, model):
        query = parse_query(
            '//item[./description/parlist and ./mailbox/mail[.contains("gold")]]'
        )
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        assert not twig_eligible(plan)


class TestLowering:
    def test_lowered_plan_shape(self, stats):
        plan = build_strict_plan(
            parse_query("//item[./mailbox/mail/text]"), UNIFORM_WEIGHTS
        )
        physical = lower_plan(plan, StaticCostModel(stats))
        assert isinstance(physical, PhysicalPlan)
        assert physical.operator in (TWIG, BINARY)
        assert physical.twig_eligible
        assert physical.cost_model == "static"
        kinds = [op.kind for op in physical.operators]
        assert kinds[0] == "seed-scan"
        assert len(physical.operators) == 1 + len(physical.logical.joins)

    def test_join_order_follows_cost_model(self, stats):
        plan = build_strict_plan(
            parse_query("//item[./name and ./incategory and ./mailbox]"),
            UNIFORM_WEIGHTS,
        )
        physical = lower_plan(plan, StaticCostModel(stats))
        ordered = physical.logical
        direct = [
            j for j in ordered.joins
            if j.alternatives[0].connect_var == ordered.root_var
        ]
        counts = [stats.tag_count(j.tag) for j in direct]
        assert counts == sorted(counts)

    def test_operator_policy_forces_choice(self, stats):
        plan = build_strict_plan(
            parse_query("//item[./mailbox/mail]"), UNIFORM_WEIGHTS
        )
        twig = lower_plan(plan, StaticCostModel(stats, operator_policy="twig"))
        binary = lower_plan(
            plan, StaticCostModel(stats, operator_policy="binary")
        )
        assert twig.operator == TWIG
        assert binary.operator == BINARY

    def test_forced_twig_still_respects_eligibility(self, stats, model):
        query = parse_query(
            '//item[./description/parlist and ./mailbox[.contains("gold")]]'
        )
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        physical = lower_plan(
            plan, StaticCostModel(stats, operator_policy="twig")
        )
        assert physical.operator == BINARY
        assert not physical.twig_eligible

    def test_contains_filter_estimates_present(self, stats):
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail/text[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        physical = lower_plan(plan, StaticCostModel(stats))
        kinds = [op.kind for op in physical.operators]
        assert "contains-filter" in kinds

    def test_describe_renders(self, stats):
        plan = build_strict_plan(
            parse_query("//item[./mailbox]"), UNIFORM_WEIGHTS
        )
        text = lower_plan(plan, StaticCostModel(stats)).describe()
        assert "physical operator:" in text
        assert "seed-scan" in text

    def test_physical_plan_pickles(self, stats):
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        physical = lower_plan(plan, StaticCostModel(stats))
        clone = pickle.loads(pickle.dumps(physical))
        assert clone.operator == physical.operator
        assert [op.as_dict() for op in clone.operators] == [
            op.as_dict() for op in physical.operators
        ]


class TestExecutorDispatch:
    @pytest.mark.parametrize("query_text", TWIG_QUERIES)
    def test_twig_matches_binary_answers_and_scores(
        self, executor, stats, query_text
    ):
        plan = build_strict_plan(parse_query(query_text), UNIFORM_WEIGHTS)
        twig = executor.run(
            lower_plan(plan, StaticCostModel(stats, operator_policy="twig")),
            mode=STRICT,
        )
        binary = executor.run(
            lower_plan(plan, StaticCostModel(stats, operator_policy="binary")),
            mode=STRICT,
        )
        logical = executor.run(plan, mode=STRICT)
        assert _ranked(twig) == _ranked(binary)
        assert _ranked(twig) == _ranked(logical)

    def test_twig_signatures_match_binary(self, executor, stats):
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        twig = executor.run(
            lower_plan(plan, StaticCostModel(stats, operator_policy="twig")),
            mode=STRICT,
        )
        binary = executor.run(
            lower_plan(plan, StaticCostModel(stats, operator_policy="binary")),
            mode=STRICT,
        )
        assert {a.node_id: a.satisfied for a in twig.answers} == {
            a.node_id: a.satisfied for a in binary.answers
        }
        assert all(a.relaxation_level == 0 for a in twig.answers)

    @pytest.mark.parametrize("mode", [SSO_MODE, HYBRID_MODE])
    def test_pruning_modes_fall_back_to_binary(
        self, executor, stats, model, mode
    ):
        # The holistic operator cannot apply threshold pruning, so a twig
        # physical plan under SSO/Hybrid must run the binary pipeline.
        query = parse_query("//item[./description/parlist]")
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, 0)
        physical = lower_plan(
            plan, StaticCostModel(stats, operator_policy="twig")
        )
        assert physical.operator == TWIG
        via_physical = executor.run(
            physical, k=5, scheme=STRUCTURE_FIRST, mode=mode
        )
        via_logical = executor.run(plan, k=5, scheme=STRUCTURE_FIRST, mode=mode)
        assert _ranked(via_physical) == _ranked(via_logical)
        assert via_physical.operators is not None
        actuals = {
            (op["kind"], op["var"]): op["actual"]
            for op in via_physical.operators
        }
        # Binary actuals were recorded, twig ones never ran.
        assert ("twig-join", plan.joins[0].var) not in {
            key for key, value in actuals.items() if value is not None
        } or actuals[("twig-join", plan.joins[0].var)] is None

    def test_operators_report_estimates_and_actuals(self, executor, stats):
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail/text[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        physical = lower_plan(
            plan, StaticCostModel(stats, operator_policy="twig")
        )
        result = executor.run(physical, mode=STRICT)
        assert result.operators
        by_key = {(op["kind"], op["var"]): op for op in result.operators}
        seed = by_key[("seed-scan", plan.root_var)]
        assert seed["estimate"] == pytest.approx(stats.tag_count("item"))
        assert seed["actual"] == stats.tag_count("item")
        twig_ops = [op for op in result.operators if op["kind"] == "twig-join"]
        assert twig_ops
        for op in twig_ops:
            assert op["actual"] is not None

    def test_logical_plans_report_no_operators(self, executor):
        plan = build_strict_plan(
            parse_query("//item[./mailbox]"), UNIFORM_WEIGHTS
        )
        result = executor.run(plan, mode=STRICT)
        assert result.operators is None

    def test_physical_counters(self, executor, stats):
        plan = build_strict_plan(
            parse_query("//item[./mailbox]"), UNIFORM_WEIGHTS
        )
        REGISTRY.reset()
        try:
            executor.run(
                lower_plan(
                    plan, StaticCostModel(stats, operator_policy="twig")
                ),
                mode=STRICT,
            )
            executor.run(
                lower_plan(
                    plan, StaticCostModel(stats, operator_policy="binary")
                ),
                mode=STRICT,
            )
            counters = REGISTRY.as_dict()["counters"]
            assert counters.get("plan.physical.twig") == 1
            assert counters.get("plan.physical.binary") == 1
        finally:
            REGISTRY.reset()


class TestCompiledPhysical:
    def test_compiled_carries_physical_plans(self, doc):
        context = QueryContext(doc)
        compiled = compile_query(
            context, parse_query("//item[./mailbox/mail]")
        )
        for level in range(compiled.level_count()):
            strict = compiled.strict_physical(level)
            encoded = compiled.encoded_physical(level)
            assert isinstance(strict, PhysicalPlan)
            assert isinstance(encoded, PhysicalPlan)
        assert compiled.strict_physical(0).logical.joins
        assert compiled.cost_model_name == context.cost_model.name
        assert compiled.cost_fingerprint == context.cost_model.fingerprint()


class TestTwigDeadline:
    """The twig operator reaches a checkpoint between pools, not only on entry."""

    QUERY = (
        '//item[.contains("name") and ./description[.contains("name")] '
        'and ./mailbox/mail/text[.contains("name")]]'
    )

    def test_overshoot_is_bounded_by_one_pool(self, doc, stats):
        """The deadline passes during the first ``contains`` probe.  Work done
        after that (probes are the unit — no wall clock, so no flakiness) must
        stay within the pool being filtered; checking on entry only, the run
        probed every pool and finished as if there were no deadline."""
        from repro.errors import QueryTimeoutError

        probes_after_deadline = []

        class ExpiringIR(IREngine):
            def satisfies(self, node, expression):
                probes_after_deadline.append(node.node_id)
                return super().satisfies(node, expression)

        def checkpoint():
            if probes_after_deadline:
                raise QueryTimeoutError("query exceeded its deadline")

        executor = PlanExecutor(doc, ExpiringIR(doc))
        physical = lower_plan(
            build_strict_plan(parse_query(self.QUERY), UNIFORM_WEIGHTS),
            StaticCostModel(stats, operator_policy="twig"),
        )
        assert physical.operator == TWIG
        unbounded = executor.run(physical, mode=STRICT)
        pools = [len(doc.nodes_with_tag(tag)) for tag in ("item", "description", "text")]
        assert len(probes_after_deadline) >= sum(pools)  # the overshoot to bound
        assert unbounded.answers

        del probes_after_deadline[:]
        with pytest.raises(QueryTimeoutError):
            executor.run(physical, mode=STRICT, checkpoint=checkpoint)
        assert 0 < len(probes_after_deadline) <= max(pools)

    def test_checkpoint_reached_between_every_stage(self, executor, stats):
        calls = []
        physical = lower_plan(
            build_strict_plan(parse_query(self.QUERY), UNIFORM_WEIGHTS),
            StaticCostModel(stats, operator_policy="twig"),
        )
        executor.run(physical, mode=STRICT, checkpoint=lambda: calls.append(1))
        variables = 5  # item, description, mailbox, mail, text
        # seed + checks loops per variable, before the join, before scoring
        assert len(calls) == 2 * variables + 2
