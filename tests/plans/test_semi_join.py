"""Existential joins run as semi-joins: which joins qualify, that the step
is invisible in every result, and what it resolves, counts and caches.

The oracle for "invisible" is the enumerating path itself: a subclass whose
``_existential`` says no join qualifies sends every join through
``_extend`` and the projection, which is what every join did before.
"""

import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plans import (
    HYBRID_MODE,
    SSO_MODE,
    EvaluationCache,
    PlanExecutor,
    build_encoded_plan,
    build_strict_plan,
    lower_plan,
)
from repro.plans.lowering import estimate_pipeline
from repro.query import parse_query
from repro.rank import COMBINED, KEYWORD_FIRST, STRUCTURE_FIRST
from repro.relax import UNIFORM_WEIGHTS, RelaxationSchedule
from repro.topk.base import QueryContext
from repro.xmark import PAPER_Q3, generate_document
from repro.xmltree import parse
from repro.xmltree.builder import TreeBuilder
from tests.plans.test_binary_ids import KERNELS, count_calls
from tests.properties.strategies import TAGS, WORDS, tree_patterns

SCHEMES = (STRUCTURE_FIRST, KEYWORD_FIRST, COMBINED)


class Enumerating(PlanExecutor):
    """The executor with no semi-join step: every join enumerates."""

    @staticmethod
    def _existential(plan):
        return (False,) * len(plan.joins)


def full_plan(context, text):
    schedule = RelaxationSchedule(parse_query(text), context.penalties)
    return build_encoded_plan(schedule, len(schedule))


@st.composite
def attributed_documents(draw, max_children=3, max_depth=4):
    """Small documents over four tags, some elements carrying ``k``."""
    builder = TreeBuilder()

    def emit(depth):
        attributes = draw(st.sampled_from((None, {"k": "1"}, {"k": "2"})))
        builder.start(draw(st.sampled_from(TAGS)), attributes)
        if draw(st.booleans()):
            builder.add_text(" ".join(draw(
                st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)
            )))
        if depth < max_depth:
            for _ in range(draw(st.integers(0, max_children))):
                emit(depth + 1)
        builder.end()

    builder.start("root")
    for _ in range(draw(st.integers(1, max_children))):
        emit(1)
    builder.end()
    return builder.finish()


# -- the static property -----------------------------------------------------------


class TestWhichJoinsQualify:
    @pytest.mark.parametrize("text, expected", [
        # A leaf nobody reads; its parent is read by the leaf's own join.
        ("//a[./b/c]", {"b": False, "c": True}),
        # Every branch leaf, but not the distinguished node.
        ("//a/b[./c and .//d]", {"b": False, "c": True, "d": True}),
        ("//a[./b]/c", {"b": True, "c": False}),
        # A contains check reads the node it is attached to.
        ('//a[./b[.contains("gold")] and ./c]', {"b": False, "c": True}),
        ("//a[./*]", {None: True}),
    ])
    def test_strict_plans(self, text, expected):
        plan = build_strict_plan(parse_query(text), UNIFORM_WEIGHTS)
        assert {
            join.tag: flag for join, flag in zip(plan.joins, plan.existential())
        } == expected

    def test_a_promoted_contains_level_keeps_its_context_alive(self):
        doc = parse("<r><a><b><c>gold</c></b></a></r>")
        context = QueryContext(doc)
        plan = full_plan(context, '//a[./b/c[.contains("gold")]]')
        # κ moves the check from c up to b and a: b is read by a check that
        # runs after c is bound, and c by its own check.
        levels = [level.var for check in plan.checks_by_var["$3"]
                  for level in check.levels]
        assert levels == ["$3", "$2", "$1"]
        assert plan.existential() == (False, False)

    def test_the_executor_decides_in_one_place(self):
        plan = build_strict_plan(parse_query("//a[./b/c]"), UNIFORM_WEIGHTS)
        assert PlanExecutor._existential(plan) == plan.existential()
        assert Enumerating._existential(plan) == (False, False)

    def test_alternatives_come_best_first_because_penalties_are_not_negative(self):
        context = QueryContext(parse(LADDER))
        schedule = RelaxationSchedule(parse_query("//a[./b/c]"), context.penalties)
        for level in range(len(schedule) + 1):
            for join in build_encoded_plan(schedule, level).joins:
                deltas = [alt.delta for alt in join.alternatives]
                assert deltas == sorted(deltas, reverse=True)
        entry = schedule.entries[1]
        schedule.entries[1] = replace(
            entry, step=replace(entry.step, penalty=-0.5)
        )
        with pytest.raises(AssertionError):
            build_encoded_plan(schedule, 1)

    @given(attributed_documents(), tree_patterns(), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_existential_is_dead_at_its_own_join_with_no_check_of_its_own(
            self, doc, query, reorder):
        """The one-pass definition against the per-position liveness the
        projection uses, in plan order and in the lowering's order."""
        context = QueryContext(doc)
        schedule = RelaxationSchedule(query, context.penalties)
        for level in (0, len(schedule) // 2, len(schedule)):
            plan = build_encoded_plan(schedule, level)
            if reorder:
                plan = lower_plan(plan, context.statistics, strict=False)
            assert plan.existential() == tuple(
                join.var not in live and not plan.checks_by_var.get(join.var)
                for join, live in zip(plan.joins, plan.live_after())
            )


class TestLoweredOperator:
    @pytest.fixture(scope="class")
    def context(self):
        return QueryContext(generate_document(target_bytes=40_000, seed=21))

    def test_kind_estimate_and_actual(self, context):
        """A conjunctive plan lowered as the binary pipeline's (encoded
        family) and run unpruned there."""
        plan = build_strict_plan(
            parse_query("//item[./mailbox/mail and ./incategory]"),
            UNIFORM_WEIGHTS,
        )
        lowered = lower_plan(plan, context.statistics, strict=False)
        kinds = {op.var: op.kind for op in lowered.estimates}
        existential = dict(zip(
            (join.var for join in lowered.joins), lowered.existential(),
        ))
        assert sorted(existential.values()) == [False, True, True]
        for var, flag in existential.items():
            assert kinds[var] == ("semi-join" if flag else "binary-join")
        # A semi-join emits at most one tuple per input; its estimate says so
        # even where the fan-out estimate is above one (incategory: ~1.5).
        pipeline = estimate_pipeline(lowered, context.statistics)
        assert max(pipeline) > pipeline[0]
        previous = lowered.estimates[0]
        for op in lowered.estimates[1:]:
            if op.kind == "semi-join":
                assert op.estimate <= previous.estimate
            if op.kind in ("semi-join", "binary-join"):
                previous = op
        result = PlanExecutor(context.backend, context.ir).run(
            lowered, mode=SSO_MODE
        )
        inputs = None
        for op in result.operators:
            assert op["actual"] is not None, op
            if op["kind"] == "semi-join":
                assert op["actual"] <= inputs
            inputs = op["actual"]
        assert "semi-join" in lowered.describe()


# -- (a) invisible in every result -------------------------------------------------

#: One query per case the step has to get right; the plain test below checks
#: that their fully relaxed plans really contain those cases.
CASES = (
    "//a[./b/c]",  # c: pc(b) | ad(b) | σ-promoted ad(a) | optional
    "//a[.//a]",  # same-tag nesting
    "//a[./b and ./c and .//d]",  # several dead leaves in a row
    "//a/b[./c]",  # a leaf under a distinguished inner node
    "//a[./*]",  # wildcard leaf: the pool is a range
    "//a[./b/*]",
    '//a[./b[@k = "1"]]',  # attribute-filtered leaf
    '//a[./b[@k = "1"]/c and ./d]',
    '//a[./b and .contains("gold")]',
    '//a[./b[.contains("gold")] and ./c]',
)


def bits(value):
    return struct.pack("<d", value)


def observed(result):
    stats = result.stats.as_dict()
    produced = stats.pop("tuples_produced")
    answers = [
        (
            answer.node_id,
            bits(answer.score.structural),
            bits(answer.score.keyword),
            answer.relaxation_level,
            answer.satisfied,
        )
        for answer in result.answers
    ]
    return answers, stats, produced


def assert_invisible(doc, query, level_share, k, restrict, cached):
    context = QueryContext(doc)
    schedule = RelaxationSchedule(query, context.penalties)
    level = round(level_share * len(schedule))
    statistics = context.statistics
    # The strict plan runs on the pipeline unpruned, as the step sees it.
    strict = lower_plan(
        build_strict_plan(schedule.level(level).query, context.weights),
        statistics, strict=False,
    )
    encoded = lower_plan(build_encoded_plan(schedule, level), statistics, strict=False)
    for plan, mode, plan_k in (
            (strict, SSO_MODE, None), (encoded, SSO_MODE, k),
            (encoded, HYBRID_MODE, k)):
        restrictions = None
        dead = [join for join, flag in zip(plan.joins, plan.existential())
                if flag]
        if restrict and dead:
            # As ir-first passes them: a frozenset of node ids per variable.
            pool = context.backend.node_ids_with_tag(dead[0].tag) \
                if dead[0].tag else range(len(context.backend))
            restrictions = {dead[0].var: frozenset(pool[::2])}
        for scheme in SCHEMES:
            results = []
            for executor_class in (PlanExecutor, Enumerating):
                executor = executor_class(
                    context.backend, context.ir,
                    eval_cache=EvaluationCache() if cached else None,
                )
                results.append(observed(executor.run(
                    plan, k=plan_k, scheme=scheme, mode=mode,
                    pool_restrictions=restrictions,
                )))
            (answers, stats, produced), (ref_answers, ref_stats, ref_produced) = results
            note = (query.to_xpath(), level, mode, scheme.name)
            assert answers == ref_answers, note
            assert stats == ref_stats, note
            assert produced <= ref_produced, note


def test_the_cases_cover_what_they_claim():
    context = QueryContext(parse(
        '<r><a k="1"><b k="1"><c>gold</c></b><d/></a></r>'
    ))
    seen = set()
    for text in CASES:
        plan = full_plan(context, text)
        for join, flag in zip(plan.joins, plan.existential()):
            if not flag:
                continue
            seen.add("optional" if join.optional else "required")
            if len(join.alternatives) > 1:
                seen.add("alternatives")
            if len({alt.connect_var for alt in join.alternatives}) > 1:
                seen.add("promoted")
            if join.tag is None:
                seen.add("wildcard")
            if join.attr_predicates:
                seen.add("attribute")
        strict = build_strict_plan(parse_query(text), UNIFORM_WEIGHTS)
        if any(strict.existential()):
            seen.add("required")
    assert seen == {"optional", "required", "alternatives", "promoted",
                    "wildcard", "attribute"}


@given(
    attributed_documents(),
    st.sampled_from(CASES),
    st.sampled_from((0.0, 0.5, 1.0)),
    st.integers(1, 6),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_semi_join_is_invisible_on_the_cases(
        doc, text, level_share, k, restrict, cached):
    assert_invisible(doc, parse_query(text), level_share, k, restrict, cached)


@given(
    attributed_documents(),
    tree_patterns(),
    st.sampled_from((0.0, 0.5, 1.0)),
    st.integers(1, 6),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_semi_join_is_invisible_on_random_patterns(
        doc, query, level_share, k, restrict):
    assert_invisible(doc, query, level_share, k, restrict, cached=False)


# -- (b) what the step resolves and counts -----------------------------------------

#: Four <a>: c is a child of b, a descendant of b, under a only, nowhere.
LADDER = (
    "<r>"
    "<a><b><c/><c/></b></a>"
    "<a><b><x><c/></x></b></a>"
    "<a><b/><c/></a>"
    "<a><b/></a>"
    "</r>"
)


class TestTheStep:
    @pytest.fixture()
    def context(self):
        return QueryContext(parse(LADDER))

    @pytest.fixture()
    def probes(self, context, monkeypatch):
        """The ``(bases, axis)`` of every probe-kernel call, in order."""
        seen = []
        inner = context.backend.semi_join_ancestor_ids

        def recording(ancestor_ids, descendant_ids, axis="ad"):
            seen.append((list(ancestor_ids), axis))
            return inner(ancestor_ids, descendant_ids, axis=axis)

        monkeypatch.setattr(
            context.backend, "semi_join_ancestor_ids", recording
        )
        return seen

    def plan(self, context, level):
        schedule = RelaxationSchedule(
            parse_query("//a[./b/c]"), context.penalties
        )
        plan = build_encoded_plan(schedule, level)
        c_join = plan.joins[1]
        assert [(alt.axis, alt.connect_var) for alt in c_join.alternatives] == [
            ("pc", "$2"), ("ad", "$2"), ("ad", "$1"),
        ]
        assert c_join.optional == (level == 3)
        assert plan.existential() == (False, True)
        return plan

    @pytest.mark.parametrize("level, survivors", [(2, 3), (3, 4)])
    @pytest.mark.parametrize("mode", [SSO_MODE, HYBRID_MODE])
    def test_one_tuple_per_surviving_input(
            self, context, probes, level, survivors, mode):
        doc = context.document
        a_ids = [node.node_id for node in doc.nodes_with_tag("a")]
        b_ids = [node.node_id for node in doc.nodes_with_tag("b")]
        result = context.executor.run(self.plan(context, level), mode=mode)
        # 4 seeds, 4 (a, b) tuples, then exactly one per input that matched
        # an alternative or survives unbound — never one per <c>.
        assert result.stats.tuples_produced == 4 + 4 + survivors
        assert result.stats.tuples_failed == 4 - survivors
        assert result.stats.max_intermediate == 4
        # Alternative j is asked only about the bases alternatives < j left.
        assert probes == [
            (b_ids, "pc"), (b_ids[1:], "ad"), (a_ids[2:], "ad"),
        ]
        by_node = {answer.node_id: answer for answer in result.answers}
        assert sorted(by_node) == a_ids[:survivors]
        for index, node_id in enumerate(a_ids[:survivors]):
            satisfied = by_node[node_id].satisfied
            assert ("$3", index if index < 3 else -1) in satisfied

    def test_second_run_calls_no_kernel(self, context, monkeypatch):
        plan = self.plan(context, 3)
        first = context.executor.run(plan, k=2, mode=SSO_MODE)
        calls = count_calls(monkeypatch, context.backend, KERNELS)
        second = context.executor.run(plan, k=2, mode=SSO_MODE)
        assert sum(calls.values()) == 0
        assert observed(second) == observed(first)

    # -- (e) the eval-cache contract over the 0.0/None tables ------------------

    def test_probes_with_a_bound_base_are_hits_plus_misses(self, context):
        cache = context.eval_cache
        context.executor.run(self.plan(context, 3), mode=SSO_MODE)
        # The b join probes 4 tuples; the c step 4, then 3, then 2.
        snapshot = cache.metrics_snapshot()
        assert snapshot["eval_cache.join.misses"] == 4 + 4 + 3 + 2
        assert snapshot["eval_cache.join.hits"] == 0
        # One entry per base per table; a semi-join table holds 0.0 where
        # the base has a candidate and None where it has none.
        joins = cache._tiers["join"]
        assert joins.entries == 13
        assert cache.info()["entries"] == joins.entries + len(cache._tiers["pool"].data)
        exists = [
            value
            for signature, table in joins.data.items() if signature[-1]
            for value in table.values()
        ]
        assert len(exists) == 9 and set(exists) == {0.0, None}
        context.executor.run(self.plan(context, 3), mode=SSO_MODE)
        snapshot = cache.metrics_snapshot()
        assert snapshot["eval_cache.join.misses"] == 13
        assert snapshot["eval_cache.join.hits"] == 13

    def test_an_unbound_base_is_no_probe(self, context):
        # Level 4 makes b optional: an <a> without <b> reaches the c step
        # with nothing bound at b, and only its ad(a) alternative asks.
        doc = parse(LADDER.replace("<a><b/></a>", "<a><c/></a>"))
        context = QueryContext(doc)
        schedule = RelaxationSchedule(
            parse_query("//a[./b/c]"), context.penalties
        )
        plan = build_encoded_plan(schedule, 4)
        assert plan.joins[0].optional
        result = context.executor.run(plan, mode=SSO_MODE)
        assert len(result.answers) == 4
        snapshot = context.eval_cache.metrics_snapshot()
        # b: 4 probes.  c: 3 bound bases at pc(b), 2 at ad(b), then the two
        # <a> still unmatched at ad(a).
        assert snapshot["eval_cache.join.misses"] == 4 + 3 + 2 + 2

    def test_a_flush_mid_step_re_seeds_the_table_in_flight(self):
        doc = generate_document(target_bytes=30_000, seed=3)
        reference = QueryContext(doc)
        small = QueryContext(doc)
        small.eval_cache.max_entries = 25
        plan = full_plan(reference, PAPER_Q3)
        assert sum(plan.existential()) >= 4
        for mode in (SSO_MODE, HYBRID_MODE):
            expected = reference.executor.run(plan, k=5, mode=mode)
            got = small.executor.run(plan, k=5, mode=mode)
            assert observed(got) == observed(expected)
        cache = small.eval_cache
        assert cache.metrics_snapshot()["eval_cache.flushes"] > 0
        joins = cache._tiers["join"]
        assert joins.entries == sum(map(len, joins.data.values()))
