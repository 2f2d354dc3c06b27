"""Lowering: eligibility, operator choice, twig/binary equivalence."""

import pickle
from dataclasses import replace

import pytest

from repro import Engine
from repro.compiled import compile_query
from repro.errors import EvaluationError
from repro.ir import IREngine
from repro.obs.metrics import REGISTRY
from repro.plans import (
    HYBRID_MODE,
    SSO_MODE,
    STRICT,
    OperatorEstimate,
    Plan,
    PlanExecutor,
    build_encoded_plan,
    build_strict_plan,
    lower_plan,
    twig_eligible,
)
from repro.plans.lowering import choose_operator
from repro.plans.plan import BINARY, TWIG
from repro.query import parse_query
from repro.rank import STRUCTURE_FIRST
from repro.relax import UNIFORM_WEIGHTS, PenaltyModel, RelaxationSchedule
from repro.backend.stats import DocumentStatistics
from repro.topk.base import QueryContext
from repro.xmark import PAPER_QUERIES, generate_document
from tests.plans.pinning import pinned_operator


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
    # Two checks on one variable: the twig table must apply both.
    '//item[.contains("father") and .contains("ground") and ./description]',
]


def _ranked(result):
    return sorted(
        (a.node_id, round(a.score.structural, 9), round(a.score.keyword, 9))
        for a in result.answers
    )


def unfounded_zero_estimates(operators):
    """The operators reporting ``estimate == 0.0`` next to a non-zero actual
    although their input was not estimated empty — a number nobody made."""
    bound_by = {}
    previous = None
    found = []
    for op in operators:
        if op["kind"] == "contains-filter":
            source = bound_by[op["var"]]
        else:
            source = previous
            bound_by[op["var"]] = previous = op
        if (op["estimate"] == 0.0 and op["actual"]
                and (source is None or source["estimate"] != 0.0)):
            found.append(op)
    return found


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
        assert plan.operator == BINARY and plan.estimates == ()
        lowered = lower_plan(plan, stats)
        assert isinstance(lowered, Plan)
        assert lowered.operator == TWIG
        assert twig_eligible(lowered)
        kinds = [op.kind for op in lowered.estimates]
        assert kinds[0] == "seed-scan"
        assert len(lowered.estimates) == 1 + len(lowered.joins)

    def test_operator_is_twig_iff_eligible(self, stats, model):
        """The one rule: no cost crossover, eligibility alone decides."""
        seen = set()
        for text in TWIG_QUERIES + [
            '//item[./description/parlist and ./mailbox[.contains("gold")]]'
        ]:
            schedule = RelaxationSchedule(parse_query(text), model)
            plans = [
                build_strict_plan(entry.query, UNIFORM_WEIGHTS)
                for entry in schedule.entries
            ] + [
                build_encoded_plan(schedule, level)
                for level in range(len(schedule) + 1)
            ]
            for plan in plans:
                lowered = lower_plan(plan, stats)
                assert choose_operator(lowered) == lowered.operator
                assert lowered.operator == (
                    TWIG if twig_eligible(lowered) else BINARY
                )
                seen.add(lowered.operator)
        assert seen == {TWIG, BINARY}

    def test_every_strict_paper_plan_takes_the_twig_operator(self, doc):
        context = QueryContext(doc)
        for text in PAPER_QUERIES.values():
            compiled = compile_query(context, parse_query(text))
            for level in range(compiled.level_count()):
                plan = compiled.strict_plan(level)
                assert plan.operator == TWIG, (text, level)
                assert plan.distinguished == plan.root_var

    def test_join_order_follows_cost_model(self, stats):
        plan = build_strict_plan(
            parse_query("//item[./name and ./incategory and ./mailbox]"),
            UNIFORM_WEIGHTS,
        )
        ordered = lower_plan(plan, stats)
        direct = [
            j for j in ordered.joins
            if j.alternatives[0].connect_var == ordered.root_var
        ]
        counts = [stats.tag_count(j.tag) for j in direct]
        assert counts == sorted(counts)

    def test_forced_twig_still_respects_eligibility(
            self, executor, stats, model):
        """The executor refuses an ineligible twig plan: a hand-set
        ``operator`` cannot produce wrong answers."""
        query = parse_query(
            '//item[./description/parlist and ./mailbox[.contains("gold")]]'
        )
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        with pinned_operator(TWIG):
            lowered = lower_plan(plan, stats)
        assert lowered.operator == BINARY
        assert not twig_eligible(lowered)
        forced = replace(lowered, operator=TWIG)
        with pytest.raises(EvaluationError, match="twig operator"):
            executor.run(forced, mode=STRICT)
        # Only a twig *run* is checked: the pruning modes never take it.
        assert _ranked(executor.run(forced, k=5, mode=SSO_MODE)) == _ranked(
            executor.run(lowered, k=5, mode=SSO_MODE)
        )

    def test_contains_filter_estimates_present(self, stats):
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail/text[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        filters = [op for op in lower_plan(plan, stats).estimates
                   if op.kind == "contains-filter"]
        assert filters
        # Not estimated, and says so: never a made-up 0.0.
        assert all(op.estimate is None for op in filters)
        assert all("est=-" in op.describe() for op in filters)

    def test_describe_renders(self, stats):
        plan = build_strict_plan(
            parse_query("//item[./mailbox]"), UNIFORM_WEIGHTS
        )
        assert "physical operator:" not in plan.describe()
        text = lower_plan(plan, stats).describe()
        assert "physical operator:" in text
        assert "seed-scan" in text

    def test_physical_plan_pickles(self, stats):
        """A lowered ``Plan`` pickles, decisions included."""
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        lowered = lower_plan(plan, stats)
        clone = pickle.loads(pickle.dumps(lowered))
        assert clone.operator == lowered.operator
        assert [join.var for join in clone.joins] == [
            join.var for join in lowered.joins
        ]
        assert clone.estimates == lowered.estimates


class TestExecutorDispatch:
    @pytest.mark.parametrize("query_text", TWIG_QUERIES)
    def test_twig_matches_binary_answers_and_scores(
        self, executor, stats, query_text
    ):
        plan = build_strict_plan(parse_query(query_text), UNIFORM_WEIGHTS)
        lowered = lower_plan(plan, stats)
        twig = executor.run(replace(lowered, operator=TWIG), mode=STRICT)
        binary = executor.run(replace(lowered, operator=BINARY), mode=STRICT)
        as_built = executor.run(plan, mode=STRICT)
        assert _ranked(twig) == _ranked(binary)
        assert _ranked(twig) == _ranked(as_built)

    def test_twig_signatures_match_binary(self, executor, stats):
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        lowered = lower_plan(plan, stats)
        twig = executor.run(replace(lowered, operator=TWIG), mode=STRICT)
        binary = executor.run(replace(lowered, operator=BINARY), mode=STRICT)
        assert {a.node_id: a.satisfied for a in twig.answers} == {
            a.node_id: a.satisfied for a in binary.answers
        }
        assert all(a.relaxation_level == 0 for a in twig.answers)

    @pytest.mark.parametrize("mode", [SSO_MODE, HYBRID_MODE])
    def test_pruning_modes_fall_back_to_binary(
        self, executor, stats, model, mode
    ):
        # The holistic operator cannot apply threshold pruning, so a twig
        # plan under SSO/Hybrid must run the binary pipeline.
        query = parse_query("//item[./description/parlist]")
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, 0)
        lowered = lower_plan(plan, stats)
        assert lowered.operator == TWIG
        via_lowered = executor.run(
            lowered, k=5, scheme=STRUCTURE_FIRST, mode=mode
        )
        as_built = executor.run(plan, k=5, scheme=STRUCTURE_FIRST, mode=mode)
        assert _ranked(via_lowered) == _ranked(as_built)
        actuals = {
            (op["kind"], op["var"]): op["actual"]
            for op in via_lowered.operators
        }
        # The seed ran; the twig joins the lowering described never did.
        assert actuals[("seed-scan", plan.root_var)] is not None
        assert actuals[("twig-join", plan.joins[0].var)] is None

    def test_operators_report_estimates_and_actuals(self, executor, stats):
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail/text[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        lowered = lower_plan(plan, stats)
        result = executor.run(lowered, mode=STRICT)
        assert result.operators
        by_key = {(op["kind"], op["var"]): op for op in result.operators}
        seed = by_key[("seed-scan", plan.root_var)]
        assert seed["estimate"] == pytest.approx(stats.tag_count("item"))
        assert seed["actual"] == stats.tag_count("item")
        twig_ops = [op for op in result.operators if op["kind"] == "twig-join"]
        assert twig_ops
        for op in twig_ops:
            assert op["actual"] is not None

    def test_physical_counters(self, executor):
        plan = build_strict_plan(
            parse_query("//item[./mailbox]"), UNIFORM_WEIGHTS
        )
        REGISTRY.reset()
        try:
            executor.run(replace(plan, operator=TWIG), mode=STRICT)
            executor.run(replace(plan, operator=BINARY), mode=STRICT)
            # A twig plan in a pruning mode runs — and counts — as binary.
            executor.run(replace(plan, operator=TWIG), k=3, mode=SSO_MODE)
            counters = REGISTRY.as_dict()["counters"]
            assert counters.get("plan.physical.twig") == 1
            assert counters.get("plan.physical.binary") == 2
        finally:
            REGISTRY.reset()

    def test_no_level_reports_an_estimate_nobody_made(self, doc):
        """``explain --analyze`` printed ``contains-filter est=0.0 act=6``:
        a 0.0 next to a non-zero actual must follow from an empty input."""
        context = QueryContext(doc)
        compiled = compile_query(
            context,
            parse_query('//item[./mailbox/mail/text[.contains("vintage")]]'),
        )
        filtered = 0
        for level in range(compiled.level_count()):
            for plan, mode in ((compiled.strict_plan(level), STRICT),
                               (compiled.encoded_plan(level), SSO_MODE)):
                operators = context.executor.run(plan, mode=mode).operators
                assert unfounded_zero_estimates(operators) == []
                filtered += sum(
                    1 for op in operators
                    if op["kind"] == "contains-filter" and op["actual"]
                )
        assert filtered  # the case the defect showed on is exercised

    def test_untraced_runs_build_no_operator_dicts(self, doc, monkeypatch):
        calls = []
        as_dict = OperatorEstimate.as_dict
        monkeypatch.setattr(
            OperatorEstimate, "as_dict",
            lambda self: calls.append(self) or as_dict(self),
        )
        engine = Engine(doc, cache=False)
        query = "//item[./mailbox/mail/text]"
        for algorithm in ("dpo", "sso"):
            assert engine.query(query, k=5, algorithm=algorithm).answers
        assert calls == []
        traced = engine.query(query, k=5, algorithm="dpo", trace=True)
        assert calls
        assert any(level.operators for level in traced.levels)


class TestCompiledPhysical:
    def test_compiled_carries_physical_plans(self, doc):
        context = QueryContext(doc)
        compiled = compile_query(
            context, parse_query("//item[./mailbox/mail]")
        )
        for level in range(compiled.level_count()):
            for plan in (compiled.strict_plan(level),
                         compiled.encoded_plan(level)):
                assert isinstance(plan, Plan)
                assert plan.operator in (TWIG, BINARY)
                assert plan.estimates  # lowered, not as built
        assert compiled.strict_plan(0).joins


class TestTwigDeadline:
    """The twig operator reaches a checkpoint per subtree table it resolves."""

    QUERY = (
        '//item[.contains("name") and ./description[.contains("name")] '
        'and ./mailbox/mail/text[.contains("name")]]'
    )

    def test_overshoot_is_bounded_by_one_pool(self, doc):
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
        physical = replace(
            build_strict_plan(parse_query(self.QUERY), UNIFORM_WEIGHTS),
            operator=TWIG,
        )
        unbounded = executor.run(physical, mode=STRICT)
        pools = [len(doc.nodes_with_tag(tag)) for tag in ("item", "description", "text")]
        # Checks probe the nodes whose subtree embeds: more than any one
        # pool in all — the overshoot to bound.
        assert len(probes_after_deadline) > max(pools)
        assert unbounded.answers

        del probes_after_deadline[:]
        with pytest.raises(QueryTimeoutError):
            executor.run(physical, mode=STRICT, checkpoint=checkpoint)
        assert 0 < len(probes_after_deadline) <= max(pools)

    def test_checkpoint_reached_between_every_stage(self, executor):
        calls = []
        physical = replace(
            build_strict_plan(parse_query(self.QUERY), UNIFORM_WEIGHTS),
            operator=TWIG,
        )
        executor.run(physical, mode=STRICT, checkpoint=lambda: calls.append(1))
        variables = 5  # item, description, mailbox, mail, text
        # once on entry, then once per subtree table resolved (every pool
        # here is below CHECKPOINT_STRIDE, so no fill reaches a stride)
        assert len(calls) == 1 + variables

    def test_abort_inside_a_resolve_leaves_only_whole_tables(
            self, doc, monkeypatch):
        """A checkpoint raising on its Nth call inside a subtree resolve, for
        N spread over a whole DPO query: the query fails with the session's
        error, every table the ``subtree`` tier kept is one a full run
        builds too, and the next identical query answers as an uncached
        engine does."""
        from repro.errors import FleXPathError, QueryTimeoutError
        from repro.plans import executor as executor_module
        from repro.session import QueryControl

        # Small strides, so the fills checkpoint inside a resolve as well.
        monkeypatch.setattr(executor_module, "CHECKPOINT_STRIDE", 8)
        query = self.QUERY

        def ask(engine):
            result = engine.query(query, k=10, algorithm="dpo", deadline_ms=60_000)
            return _ranked(result)

        expected = ask(Engine(doc, cache=False))
        reference = Engine(doc)
        ask(reference)
        whole = reference.context.eval_cache._tiers["subtree"].data

        depth = [0]
        subtree = PlanExecutor._subtree

        def tracked(self, *args):
            depth[0] += 1
            try:
                return subtree(self, *args)
            finally:
                depth[0] -= 1

        calls = []
        raise_at = [None]
        check = QueryControl.check

        def checkpoint(self):
            calls.append(depth[0] > 0)
            if len(calls) == raise_at[0]:
                raise QueryTimeoutError("query exceeded its deadline")
            return check(self)

        monkeypatch.setattr(PlanExecutor, "_subtree", tracked)
        monkeypatch.setattr(QueryControl, "check", checkpoint)
        ask(Engine(doc))
        inside = [n for n, in_resolve in enumerate(calls, 1) if in_resolve]
        assert len(inside) > 10
        for nth in inside[::max(1, len(inside) // 10)]:
            engine = Engine(doc)
            del calls[:]
            raise_at[0] = nth
            with pytest.raises(FleXPathError):
                ask(engine)
            kept = engine.context.eval_cache._tiers["subtree"].data
            for key, table in kept.items():
                assert whole[key] == table, nth
            raise_at[0] = None
            assert ask(engine) == expected, nth
