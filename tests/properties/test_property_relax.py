"""Property tests: Theorem 2 soundness and schedule monotonicity."""

from hypothesis import given, settings

from repro.query import evaluate, is_contained_in
from repro.relax import PenaltyModel, RelaxationSchedule, applicable_relaxations
from repro.backend.stats import DocumentStatistics

from tests.properties.strategies import documents, tree_patterns


@given(tree_patterns())
@settings(max_examples=60, deadline=None)
def test_every_operator_application_is_sound(query):
    """Theorem 2 soundness: each operator output contains its input."""
    for _name, _description, relaxed in applicable_relaxations(query):
        assert is_contained_in(query, relaxed)


@given(tree_patterns(), documents())
@settings(max_examples=40, deadline=None)
def test_relaxation_never_loses_answers_extensionally(query, doc):
    """On any document, a relaxed query returns a superset of answers."""
    base = {n.node_id for n in evaluate(query, doc)}
    for _name, _description, relaxed in applicable_relaxations(query):
        relaxed_ids = {n.node_id for n in evaluate(relaxed, doc)}
        assert base <= relaxed_ids


@given(tree_patterns(), documents())
@settings(max_examples=30, deadline=None)
def test_schedule_scores_non_increasing(query, doc):
    model = PenaltyModel(DocumentStatistics(doc))
    schedule = RelaxationSchedule(query, model, max_steps=6)
    scores = [schedule.structural_score(i) for i in range(len(schedule) + 1)]
    assert all(x >= y - 1e-12 for x, y in zip(scores, scores[1:]))


@given(tree_patterns(), documents())
@settings(max_examples=30, deadline=None)
def test_schedule_chain_answer_sets_grow(query, doc):
    model = PenaltyModel(DocumentStatistics(doc))
    schedule = RelaxationSchedule(query, model, max_steps=5)
    previous = set()
    for entry in schedule.entries:
        current = {n.node_id for n in evaluate(entry.query, doc)}
        assert previous <= current
        previous = current
