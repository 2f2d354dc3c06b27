"""The binary pipeline's mechanism, pinned: ids until the answer, one
candidate resolution per join alternative, no projection where nothing dies,
and a deadline noticed inside a join — counted in calls and tuples, never
in wall-clock time."""

from dataclasses import replace

import pytest

from repro import Engine
from repro.backend import as_backend
from repro.errors import QueryTimeoutError
from repro.ir import IREngine
from repro.plans import (
    HYBRID_MODE,
    SSO_MODE,
    STRICT,
    Alternative,
    PlanExecutor,
    build_encoded_plan,
    build_strict_plan,
)
from repro.plans import executor as executor_module
from repro.query import parse_query
from repro.rank import STRUCTURE_FIRST, rank_answers
from repro.relax import UNIFORM_WEIGHTS, RelaxationSchedule
from repro.topk.base import QueryContext
from repro.xmark import PAPER_Q1, PAPER_Q2, PAPER_Q3, generate_document
from repro.xmltree import parse

#: The two kernels a join step may call on the backend, and the document's
#: per-base navigation, which a join step must never reach for.
KERNELS = ("structural_join_ids", "semi_join_ancestor_ids")
NAVIGATION = (
    "children",
    "children_with_tag",
    "child_ids_with_tag",
    "descendants",
    "descendants_with_tag",
    "descendant_ids_with_tag",
)


@pytest.fixture(scope="module")
def doc():
    return generate_document(target_bytes=40_000, seed=21)


def count_calls(monkeypatch, owner, names):
    """Wrap ``owner``'s methods; returns the per-name call counts (live)."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, inner):
        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(owner, name, wrap(name, getattr(owner, name)))
    return calls


def encoded_q2(context):
    schedule = RelaxationSchedule(parse_query(PAPER_Q2), context.penalties)
    return build_encoded_plan(schedule, len(schedule))


class TestViewsOnlyForAnswers:
    """A run makes no node view; reading ``answer.node`` makes one, once."""

    K = 3

    @pytest.mark.parametrize("mode", [SSO_MODE, HYBRID_MODE, STRICT])
    def test_run_makes_none_and_each_read_answer_one(self, doc, monkeypatch, mode):
        context = QueryContext(doc)
        if mode == STRICT:
            plan = build_strict_plan(parse_query(PAPER_Q2), UNIFORM_WEIGHTS)
        else:
            plan = encoded_q2(context)
        views = count_calls(monkeypatch, context.backend, ["node"])
        made = count_calls(monkeypatch, context.document, ["node"])
        result = context.executor.run(plan, k=self.K, mode=mode)
        assert result.stats.tuples_produced > 10 * result.stats.answers_before_dedup
        if mode == STRICT:
            assert len(result.answers) > self.K
        else:
            # The pipeline makes answer records for the K best alone.
            assert result.stats.answers_before_dedup > self.K
            assert len(result.answers) == self.K
        assert views["node"] == made["node"] == 0
        top = rank_answers(result.answers, STRUCTURE_FIRST, self.K)
        read = [answer.node for answer in top] + [answer.node for answer in top]
        assert views["node"] == made["node"] == self.K
        assert [node.node_id for node in read[:self.K]] == [
            answer.node_id for answer in top
        ]

    @pytest.mark.parametrize("algorithm", ["dpo", "sso", "hybrid", "naive", "ir-first"])
    def test_a_query_makes_views_for_the_answers_read(self, doc, monkeypatch, algorithm):
        engine = Engine(doc, cache=False)
        views = count_calls(monkeypatch, engine.backend, ["node"])
        made = count_calls(monkeypatch, engine.document, ["node"])
        result = engine.query(PAPER_Q3, k=self.K, algorithm=algorithm)
        assert len(result.answers) == self.K
        assert views["node"] == made["node"] == 0
        assert [node.node_id for node in result.nodes()] == result.node_ids()
        assert views["node"] == made["node"] == self.K


class TestOneResolutionPerAlternative:
    @pytest.mark.parametrize("mode", [SSO_MODE, HYBRID_MODE])
    def test_merges_bounded_by_alternatives_not_tuples(
            self, doc, monkeypatch, mode):
        context = QueryContext(doc)
        plan = encoded_q2(context)
        alternatives = sum(len(join.alternatives) for join in plan.joins)
        calls = count_calls(monkeypatch, context.backend, KERNELS)
        navigation = count_calls(monkeypatch, context.document, NAVIGATION)
        result = context.executor.run(plan, k=10, mode=mode)
        assert result.stats.tuples_produced > 20 * alternatives
        assert 0 < sum(calls.values()) <= alternatives
        assert not any(navigation.values())

    def test_uncached_executor_is_bounded_the_same_way(self, doc, monkeypatch):
        """One kernel call per alternative actually needed — a merge where
        the binding is read, a probe pass where it is not — and no per-base
        navigation."""
        backend = as_backend(doc)
        plan = build_strict_plan(parse_query(PAPER_Q2), UNIFORM_WEIGHTS)
        calls = count_calls(monkeypatch, backend, KERNELS)
        navigation = count_calls(monkeypatch, doc, NAVIGATION)
        result = PlanExecutor(backend).run(plan, mode=SSO_MODE)
        assert result.answers
        assert sum(calls.values()) == len(plan.joins)
        assert not any(navigation.values())
        existential = sum(plan.existential())
        assert 0 < existential < len(plan.joins)
        assert calls["semi_join_ancestor_ids"] == existential
        assert calls["structural_join_ids"] == len(plan.joins) - existential


class TestProjection:
    def test_identity_where_no_variable_dies(self, doc):
        plan = build_strict_plan(parse_query(PAPER_Q1), UNIFORM_WEIGHTS)
        positions = {plan.root_var: 0}
        for index, join in enumerate(plan.joins):
            positions[join.var] = index + 1
        # //item[./description/parlist]: after the description join both
        # bound variables are still needed; after parlist only item is.
        projections = PlanExecutor._projections(plan, positions)
        assert projections == [None, (0,)]
        tuples = [((1, 2), 0.0, 0.0, ()), ((1, 3), 0.0, 0.0, ())]
        assert PlanExecutor._project(tuples, None, STRUCTURE_FIRST) is tuples

    def test_collapses_on_the_live_bindings_when_one_dies(self):
        tuples = [
            ((1, 2, 5), 1.0, 0.0, ("a",)),
            ((1, 3, 6), 2.0, 0.0, ("b",)),
            ((4, 7, 8), 1.0, 0.0, ("c",)),
        ]
        projected = PlanExecutor._project(tuples, (0,), STRUCTURE_FIRST)
        assert projected == [
            ((1, None, None), 2.0, 0.0, ("b",)),
            ((4, None, None), 1.0, 0.0, ("c",)),
        ]

    def test_distinct_keys_come_back_untouched(self):
        tuples = [((1, 2), 1.0, 0.0, ()), ((3, 2), 1.0, 0.0, ())]
        assert PlanExecutor._project(tuples, (0,), STRUCTURE_FIRST) is tuples


class TestDeadlineInsideAJoin:
    """One join over many tuples used to run to its end whatever the
    deadline; now the overshoot is at most one checkpoint stride."""

    STRIDE = 8
    FAN = 50

    @pytest.fixture()
    def backend(self):
        return as_backend(parse("<r>%s</r>" % ("<a><b>gold</b></a>" * self.FAN)))

    @pytest.fixture()
    def stats_seen(self, monkeypatch):
        """The ExecutionStats objects ``run`` creates (an aborted run
        returns nothing to read them from)."""
        seen = []

        class Captured(executor_module.ExecutionStats):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self)

        monkeypatch.setattr(executor_module, "ExecutionStats", Captured)
        monkeypatch.setattr(
            executor_module, "CHECKPOINT_STRIDE", self.STRIDE, raising=False
        )
        return seen

    def test_extend_overshoot_is_at_most_one_stride(
            self, backend, stats_seen, monkeypatch):
        expired = []
        merge = backend.structural_join_ids

        def expiring_merge(*args, **kwargs):
            expired.append(True)  # the deadline passes while the join starts
            return merge(*args, **kwargs)

        def checkpoint():
            if expired:
                raise QueryTimeoutError("query exceeded its deadline")

        monkeypatch.setattr(backend, "structural_join_ids", expiring_merge)
        plan = build_strict_plan(parse_query("//a/b"), UNIFORM_WEIGHTS)
        executor = PlanExecutor(backend)
        assert len(executor.run(plan, mode=SSO_MODE).answers) == self.FAN
        del expired[:]
        with pytest.raises(QueryTimeoutError):
            executor.run(plan, mode=SSO_MODE, checkpoint=checkpoint)
        joined = stats_seen[-1].tuples_produced - self.FAN  # minus the seeds
        assert 0 < joined <= self.STRIDE

    @pytest.mark.parametrize("inner, rounds", [("<b/>", 1), ("<x><b/></x>", 2)])
    def test_semi_join_overshoot_is_at_most_one_stride(
            self, stats_seen, monkeypatch, inner, rounds):
        """The step decides per input with one table lookup: count the
        lookups made once the deadline has passed — while the probe kernel
        of the deciding alternative ran (the second document's <b> are
        grandchildren: ``pc`` matches nothing, then ``ad`` everything)."""
        backend = as_backend(
            parse("<r>%s</r>" % (("<a>%s</a>" % inner) * self.FAN))
        )
        plan = build_strict_plan(parse_query("//a[./b]"), UNIFORM_WEIGHTS)
        join, = plan.joins
        relaxed = Alternative("$1", "ad", 0.5, "γ")
        plan = replace(plan, joins=(
            replace(join, alternatives=join.alternatives + (relaxed,)),
        ))
        assert plan.existential() == (True,)
        kernel_calls = []
        late_lookups = []
        probe = backend.semi_join_ancestor_ids
        fill = executor_module._has_candidate

        def counted_probe(*args, **kwargs):
            kernel_calls.append(True)
            return probe(*args, **kwargs)

        class Watched(dict):
            def get(self, base):
                if len(kernel_calls) >= rounds:
                    late_lookups.append(base)
                return super().get(base)

        def checkpoint():
            if len(kernel_calls) >= rounds:
                raise QueryTimeoutError("query exceeded its deadline")

        monkeypatch.setattr(backend, "semi_join_ancestor_ids", counted_probe)
        monkeypatch.setattr(
            executor_module, "_has_candidate",
            lambda *args: Watched(fill(*args)),
        )
        executor = PlanExecutor(backend)
        bare = executor.run(plan, mode=SSO_MODE)
        assert len(bare.answers) == self.FAN
        assert len(kernel_calls) == rounds
        assert len(late_lookups) == self.FAN
        del kernel_calls[:], late_lookups[:]
        with pytest.raises(QueryTimeoutError):
            executor.run(plan, mode=SSO_MODE, checkpoint=checkpoint)
        assert 0 < len(late_lookups) <= self.STRIDE
        # A checkpoint that never fires is called at every stride boundary
        # of every round (plus run entry and the join) and changes nothing.
        calls = []
        monkeypatch.setattr(executor_module, "_has_candidate", fill)
        checked = executor.run(
            plan, mode=SSO_MODE, checkpoint=lambda: calls.append(1)
        )
        assert checked.stats == bare.stats
        assert len(calls) == 2 + rounds * (-(-self.FAN // self.STRIDE) - 1)

    def test_checks_overshoot_is_at_most_one_stride(self, backend, stats_seen):
        """The deadline passes as the first ids reach the ``contains``
        door: no more than one stride of ids ever does."""
        probes_after_deadline = []

        class ExpiringIR(IREngine):
            def contains_scores(self, expression, node_ids):
                probes_after_deadline.extend(node_ids)
                return super().contains_scores(expression, node_ids)

        def checkpoint():
            if probes_after_deadline:
                raise QueryTimeoutError("query exceeded its deadline")

        plan = build_strict_plan(
            parse_query('//b[.contains("gold")]'), UNIFORM_WEIGHTS
        )
        executor = PlanExecutor(backend, ExpiringIR(backend.document))
        assert len(executor.run(plan, mode=SSO_MODE).answers) == self.FAN
        del probes_after_deadline[:]
        with pytest.raises(QueryTimeoutError):
            executor.run(plan, mode=SSO_MODE, checkpoint=checkpoint)
        assert 0 < len(probes_after_deadline) <= self.STRIDE

    def test_an_unexpired_checkpoint_changes_nothing(self, backend, stats_seen):
        plan = build_strict_plan(
            parse_query('//a/b[.contains("gold")]'), UNIFORM_WEIGHTS
        )
        executor = PlanExecutor(backend)
        calls = []
        bare = executor.run(plan, mode=SSO_MODE)
        checked = executor.run(
            plan, mode=SSO_MODE, checkpoint=lambda: calls.append(1)
        )
        assert checked.stats == bare.stats
        assert [a.node_id for a in checked.answers] == [
            a.node_id for a in bare.answers
        ]
        strides = -(-self.FAN // self.STRIDE)
        # entry + the join, then the boundaries inside the join, inside the
        # contains table's fill and inside the check's round
        assert len(calls) == 2 + 3 * (strides - 1)
