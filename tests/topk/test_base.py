"""QueryContext, TopKResult, and the combined-scheme level cutoff."""

import pytest

from repro.collection import Corpus
from repro.engine import ALGORITHMS
from repro.query import parse_query
from repro.relax import WeightAssignment
from repro.topk import QueryContext, combined_level_cutoff
from repro.xmltree import parse


@pytest.fixture(scope="module")
def doc():
    return parse(
        "<r>"
        "<a><b><c>gold</c></b></a>"
        "<a><b>gold</b></a>"
        "<a><c>silver</c></a>"
        "</r>"
    )


class TestQueryContext:
    def test_components_wired(self, doc):
        context = QueryContext(doc)
        assert context.document is doc
        assert context.ir.document is doc
        assert context.statistics.document is doc
        assert context.estimator is not None
        assert context.executor is not None

    def test_schedule_cached(self, doc):
        context = QueryContext(doc)
        query = parse_query("//a[./b/c]")
        assert context.schedule(query) is context.schedule(query)

    def test_schedule_cache_keyed_by_options(self, doc):
        context = QueryContext(doc)
        query = parse_query("//a[./b/c]")
        full = context.schedule(query)
        capped = context.schedule(query, max_steps=1)
        assert full is not capped
        assert len(capped) <= 1

    def test_custom_weights_flow_into_penalties(self, doc):
        heavy = QueryContext(doc, weights=WeightAssignment(default=10.0))
        query = parse_query("//a[./b/c]")
        schedule = heavy.schedule(query)
        assert schedule.base_score == pytest.approx(20.0)

    def test_custom_ir_engine_accepted(self, doc):
        from repro.ir import IREngine

        engine = IREngine(doc)
        context = QueryContext(doc, ir_engine=engine)
        assert context.ir is engine

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_ingest_then_top_k_answers_like_a_fresh_context(self, algorithm):
        """No engine: the context's own caches fence on the backend version."""
        corpus = Corpus()
        corpus.add_text("<r><a><b><c>gold</c></b></a><a><b>gold</b></a></r>")
        strategy = ALGORITHMS[algorithm]
        query = parse_query('//a[./b/c and .contains("gold")]')
        warm = QueryContext(corpus)
        strategy(warm).top_k(query, k=10)
        corpus.add_text("<r><a><c>gold gold</c></a><a><b><c>tin</c></b></a></r>")
        fresh = QueryContext(corpus)

        def answers(context):
            return [
                (answer.node_id, answer.score)
                for answer in strategy(context).top_k(query, k=10).answers
            ]

        assert answers(warm) == answers(fresh)


class TestTopKResult:
    def test_node_helpers(self, doc):
        from repro.topk import SSO

        context = QueryContext(doc)
        result = SSO(context).top_k(parse_query("//a"), 2)
        assert len(result.nodes()) == 2
        assert result.node_ids() == [n.node_id for n in result.nodes()]
        assert "SSO" in repr(result)


class TestCombinedCutoff:
    class _FakeSchedule:
        """Scores 5, 4, 3, 2, 1, 0 at levels 0..5."""

        def __len__(self):
            return 5

        def structural_score(self, index):
            return 5.0 - index

    def test_cutoff_extends_by_headroom(self):
        schedule = self._FakeSchedule()
        # Reached at level 1 (score 4); with one contains (m=1), levels with
        # score > 3 remain interesting: none beyond 1 since level 2 scores 3.
        assert combined_level_cutoff(schedule, 1, 1) == 1

    def test_cutoff_with_larger_headroom(self):
        schedule = self._FakeSchedule()
        # m=2: levels with score > 2 stay: level 2 (3) qualifies, level 3
        # (2) does not.
        assert combined_level_cutoff(schedule, 1, 2) == 2

    def test_zero_headroom_stops_immediately(self):
        schedule = self._FakeSchedule()
        assert combined_level_cutoff(schedule, 2, 0) == 2

    def test_cutoff_never_exceeds_schedule(self):
        schedule = self._FakeSchedule()
        assert combined_level_cutoff(schedule, 4, 100) == 5
