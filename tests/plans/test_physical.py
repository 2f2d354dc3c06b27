"""Lowering and dispatch: eligibility, one operator per plan family (strict
plans on the twig operator, encoded plans on the binary pipeline), and
twig/binary equivalence."""

import pickle

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
from repro.query import parse_query
from repro.rank import STRUCTURE_FIRST
from repro.relax import UNIFORM_WEIGHTS, PenaltyModel, RelaxationSchedule
from repro.backend.stats import DocumentStatistics
from repro.topk import DPO, SSO, Hybrid
from repro.topk.base import QueryContext
from repro.xmark import PAPER_QUERIES, generate_document


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


#: The row kinds of each operator's estimates and actuals.
KINDS_OF = {
    "twig": {"seed-scan", "twig-join", "contains-filter"},
    "binary": {"seed-scan", "binary-join", "semi-join", "contains-filter"},
}


def _ranked(result):
    return sorted(
        (a.node_id, round(a.score.structural, 9), round(a.score.keyword, 9))
        for a in result.answers
    )


def _kinds(plan):
    return {op.kind for op in plan.estimates}


def _family_plans(model, text):
    """Every strict and every encoded plan of ``text``'s schedule, as built."""
    schedule = RelaxationSchedule(parse_query(text), model)
    strict = [
        build_strict_plan(entry.query, UNIFORM_WEIGHTS)
        for entry in schedule.entries
    ]
    encoded = [
        build_encoded_plan(schedule, level) for level in range(len(schedule) + 1)
    ]
    return strict, encoded


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
        assert plan.estimates == ()
        lowered = lower_plan(plan, stats, strict=True)
        assert isinstance(lowered, Plan)
        assert twig_eligible(lowered)
        kinds = [op.kind for op in lowered.estimates]
        assert kinds == ["seed-scan"] + ["twig-join"] * len(lowered.joins)

    def test_estimates_name_the_family_operator(self, stats, model):
        """The lowering's caller names the family: strict plans are
        estimated as twig joins, encoded plans as binary / semi-joins —
        the encoded level-0 plan too, although it is twig-eligible."""
        for text in TWIG_QUERIES + [
            '//item[./description/parlist and ./mailbox[.contains("gold")]]'
        ]:
            strict, encoded = _family_plans(model, text)
            for plan in strict:
                assert _kinds(lower_plan(plan, stats, strict=True)) <= KINDS_OF["twig"]
            assert twig_eligible(encoded[0])
            for plan in encoded:
                lowered = lower_plan(plan, stats, strict=False)
                assert _kinds(lowered) <= KINDS_OF["binary"]
                if plan.joins:
                    assert _kinds(lowered) & {"binary-join", "semi-join"}

    def test_every_strict_paper_plan_takes_the_twig_operator(self, doc):
        context = QueryContext(doc)
        for text in PAPER_QUERIES.values():
            compiled = compile_query(context, parse_query(text))
            for level in range(compiled.level_count()):
                plan = compiled.strict_plan(level)
                assert _kinds(plan) <= KINDS_OF["twig"], (text, level)
                assert plan.distinguished == plan.root_var

    def test_join_order_follows_cost_model(self, stats):
        plan = build_strict_plan(
            parse_query("//item[./name and ./incategory and ./mailbox]"),
            UNIFORM_WEIGHTS,
        )
        ordered = lower_plan(plan, stats, strict=True)
        direct = [
            j for j in ordered.joins
            if j.alternatives[0].connect_var == ordered.root_var
        ]
        counts = [stats.tag_count(j.tag) for j in direct]
        assert counts == sorted(counts)

    def test_forced_twig_still_respects_eligibility(
            self, executor, stats, model):
        """Strict mode refuses an ineligible plan: handing an encoded plan
        past level 0 to the twig operator cannot produce wrong answers."""
        query = parse_query(
            '//item[./description/parlist and ./mailbox[.contains("gold")]]'
        )
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        lowered = lower_plan(plan, stats, strict=False)
        assert not twig_eligible(lowered)
        with pytest.raises(EvaluationError, match="twig operator"):
            executor.run(lowered, mode=STRICT)
        # Only a twig *run* is checked: the pruning modes run it binary.
        assert _ranked(executor.run(lowered, k=5, mode=SSO_MODE)) == _ranked(
            executor.run(plan, k=5, mode=SSO_MODE)
        )

    def test_contains_filter_estimates_present(self, stats):
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail/text[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        filters = [op for op in lower_plan(plan, stats, strict=True).estimates
                   if op.kind == "contains-filter"]
        assert filters
        # Not estimated, and says so: never a made-up 0.0.
        assert all(op.estimate is None for op in filters)
        assert all("est=-" in op.describe() for op in filters)

    def test_describe_renders(self, stats):
        plan = build_strict_plan(
            parse_query("//item[./mailbox]"), UNIFORM_WEIGHTS
        )
        assert "seed-scan" not in plan.describe()
        text = lower_plan(plan, stats, strict=True).describe()
        assert "seed-scan" in text and "twig-join" in text
        # The mode a plan runs under names its operator; the plan does not.
        assert "physical operator" not in text

    def test_physical_plan_pickles(self, stats):
        """A lowered ``Plan`` pickles, decisions included."""
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        lowered = lower_plan(plan, stats, strict=True)
        clone = pickle.loads(pickle.dumps(lowered))
        assert [join.var for join in clone.joins] == [
            join.var for join in lowered.joins
        ]
        assert clone.estimates == lowered.estimates


class TestExecutorDispatch:
    @pytest.mark.parametrize("query_text", TWIG_QUERIES)
    def test_twig_matches_binary_answers_and_scores(
        self, executor, stats, query_text
    ):
        """Strict mode against the binary pipeline unpruned (``k=None``)."""
        plan = build_strict_plan(parse_query(query_text), UNIFORM_WEIGHTS)
        lowered = lower_plan(plan, stats, strict=True)
        twig = executor.run(lowered, mode=STRICT)
        binary = executor.run(lowered, mode=SSO_MODE)
        as_built = executor.run(plan, mode=STRICT)
        assert _ranked(twig) == _ranked(binary)
        assert _ranked(twig) == _ranked(as_built)

    def test_twig_signatures_match_binary(self, executor, stats):
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        lowered = lower_plan(plan, stats, strict=True)
        twig = executor.run(lowered, mode=STRICT)
        binary = executor.run(lowered, mode=SSO_MODE)
        assert {a.node_id: a.satisfied for a in twig.answers} == {
            a.node_id: a.satisfied for a in binary.answers
        }
        assert all(a.relaxation_level == 0 for a in twig.answers)

    @pytest.mark.parametrize("mode", [SSO_MODE, HYBRID_MODE])
    def test_pruning_modes_fall_back_to_binary(
        self, executor, stats, model, mode
    ):
        # The holistic operator cannot apply threshold pruning, so SSO/Hybrid
        # run the binary pipeline, on a twig-eligible level-0 plan too.
        query = parse_query("//item[./description/parlist]")
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, 0)
        assert twig_eligible(plan)
        lowered = lower_plan(plan, stats, strict=False)
        via_lowered = executor.run(
            lowered, k=5, scheme=STRUCTURE_FIRST, mode=mode
        )
        as_built = executor.run(plan, k=5, scheme=STRUCTURE_FIRST, mode=mode)
        assert _ranked(via_lowered) == _ranked(as_built)
        # Every operator the lowering described is one that ran.
        assert via_lowered.operators
        for op in via_lowered.operators:
            assert op["kind"] in KINDS_OF["binary"]
            assert op["actual"] is not None, op

    def test_operators_report_estimates_and_actuals(self, executor, stats):
        plan = build_strict_plan(
            parse_query('//item[./mailbox/mail/text[.contains("gold")]]'),
            UNIFORM_WEIGHTS,
        )
        lowered = lower_plan(plan, stats, strict=True)
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

    def test_physical_counters(self, doc):
        """``top_k`` counts each plan run under the operator its strategy's
        mode picks: DPO's strict plans as twig, SSO/Hybrid's as binary."""
        context = QueryContext(doc)
        tpq = parse_query("//item[./mailbox]")
        REGISTRY.reset()
        try:
            results = [
                strategy(context).top_k(tpq, 3) for strategy in (DPO, SSO, Hybrid)
            ]
            twig = results[0].levels_evaluated
            binary = results[1].levels_evaluated + results[2].levels_evaluated
            stats = [run for result in results for run in result.stats]
            counters = REGISTRY.as_dict()["counters"]
            assert counters.get("plan.physical.twig") == twig > 0
            assert counters.get("plan.physical.binary") == binary > 0
            assert counters["executor.plans_executed"] == len(stats)
            assert counters["executor.tuples_produced"] == sum(
                run.tuples_produced for run in stats
            )
            assert REGISTRY.gauge("executor.max_intermediate") == max(
                run.max_intermediate for run in stats
            )
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

    def test_traced_levels_report_the_operator_that_ran(self, doc):
        """SSO/Hybrid's level-0 encoded plan used to be lowered with
        ``twig-join`` estimates while it ran on the binary pipeline, so its
        trace printed joins with ``actual None``.  Every traced level's rows
        must name the operator that ran (a twig run emits the ``twig`` span)
        and carry an actual."""
        engine = Engine(doc, cache=False)
        runs = {"dpo": "twig", "naive": "twig", "ir-first": "twig",
                "sso": "binary", "hybrid": "binary"}
        encoded_level_zero = 0
        for text in PAPER_QUERIES.values():
            for algorithm, operator in runs.items():
                traced = engine.query(text, k=10, algorithm=algorithm, trace=True)
                assert traced.levels, (text, algorithm)
                for level in traced.levels:
                    note = (text, algorithm, level.label)
                    ran = "twig" if "twig" in level.spans else "binary"
                    assert ran == operator, note
                    for op in level.operators:
                        assert op["kind"] in KINDS_OF[ran], (note, op)
                        if op["kind"] != "contains-filter":
                            assert op["actual"] is not None, (note, op)
                    encoded_level_zero += level.label == "encoded@level 0"
        assert encoded_level_zero  # the case the defect showed on ran

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
            for plan, kinds in ((compiled.strict_plan(level), KINDS_OF["twig"]),
                                (compiled.encoded_plan(level), KINDS_OF["binary"])):
                assert isinstance(plan, Plan)
                assert plan.estimates  # lowered, not as built
                assert _kinds(plan) <= kinds, level
        assert compiled.strict_plan(0).joins


class TestTwigDeadline:
    """The twig operator reaches a checkpoint per subtree table it resolves."""

    QUERY = (
        '//item[.contains("name") and ./description[.contains("name")] '
        'and ./mailbox/mail/text[.contains("name")]]'
    )

    def test_overshoot_is_bounded_by_one_pool(self, doc):
        """The deadline passes as the first ids reach the ``contains`` door.
        Work done after that (ids probed are the unit — no wall clock, so no
        flakiness) must stay within the pool being filtered; checking on
        entry only, the run probed every pool and finished as if there were
        no deadline."""
        from repro.errors import QueryTimeoutError

        probes_after_deadline = []

        class ExpiringIR(IREngine):
            def contains_scores(self, expression, node_ids):
                probes_after_deadline.extend(node_ids)
                return super().contains_scores(expression, node_ids)

        def checkpoint():
            if probes_after_deadline:
                raise QueryTimeoutError("query exceeded its deadline")

        executor = PlanExecutor(doc, ExpiringIR(doc))
        physical = build_strict_plan(parse_query(self.QUERY), UNIFORM_WEIGHTS)
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
        physical = build_strict_plan(parse_query(self.QUERY), UNIFORM_WEIGHTS)
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
