"""The IR-first strategy: same answers as DPO, different work profile."""

import pytest

from repro.query import parse_query
from repro.topk import DPO, IRFirstDPO, QueryContext, ir_first
from repro.xmark import generate_document


@pytest.fixture(scope="module")
def context():
    return QueryContext(generate_document(target_bytes=60_000, seed=4))


SELECTIVE = '//item[./mailbox/mail/text[.contains("vintage" and "treasure")]]'
UNSELECTIVE = '//item[./name and .contains("time" or "year" or "day")]'


class TestCorrectness:
    @pytest.mark.parametrize("query_text", [SELECTIVE, UNSELECTIVE])
    @pytest.mark.parametrize("k", [3, 25])
    def test_agrees_with_dpo(self, context, query_text, k):
        query = parse_query(query_text)
        baseline = DPO(context).top_k(query, k)
        ir_first = IRFirstDPO(context).top_k(query, k)
        assert [a.node_id for a in ir_first.answers] == [
            a.node_id for a in baseline.answers
        ]
        for left, right in zip(ir_first.answers, baseline.answers):
            assert left.score.structural == pytest.approx(right.score.structural)
            assert left.score.keyword == pytest.approx(right.score.keyword)

    def test_structure_only_query_unaffected(self, context):
        query = parse_query("//item[./description/parlist]")
        baseline = DPO(context).top_k(query, 10)
        ir_first = IRFirstDPO(context).top_k(query, 10)
        assert [a.node_id for a in ir_first.answers] == [
            a.node_id for a in baseline.answers
        ]


class TestWorkProfile:
    def test_selective_keywords_cut_structural_work(self):
        """With a selective expression, pre-filtering shrinks the tuple flow
        — the case where §5.1 expects the alternative to win.  (Uncached: a
        strict run counts the tables it resolves, which a warm cache hides.)"""
        context = QueryContext(generate_document(target_bytes=60_000, seed=4))
        context.eval_cache.enabled = False
        query = parse_query(SELECTIVE)
        baseline = DPO(context).top_k(query, 3)
        ir_first = IRFirstDPO(context).top_k(query, 3)
        baseline_tuples = sum(s.tuples_produced for s in baseline.stats)
        ir_tuples = sum(s.tuples_produced for s in ir_first.stats)
        assert ir_tuples < baseline_tuples

    def test_satisfier_sets_cached(self, context):
        """The satisfier sets are read off the ``contains`` tables."""
        strategy = IRFirstDPO(context)
        query = parse_query(SELECTIVE)
        strategy.top_k(query, 3)
        snapshot = context.eval_cache.metrics_snapshot()
        misses = snapshot["eval_cache.contains.misses"]
        hits = snapshot["eval_cache.contains.hits"]
        assert misses + hits > 0  # the satisfier sets went through the cache
        strategy.top_k(query, 3)
        after = context.eval_cache.metrics_snapshot()
        # Repeating the query computes nothing new — only hits grow.
        assert after["eval_cache.contains.misses"] == misses
        assert after["eval_cache.contains.hits"] > hits

    @pytest.mark.parametrize("query_text", [SELECTIVE, UNSELECTIVE])
    def test_pre_filter_and_checks_share_one_table(self, query_text):
        """After an IR-first run, DPO on the same expression resolves no new
        ``contains`` id: the pre-filter filled the table its checks read."""
        context = QueryContext(generate_document(target_bytes=60_000, seed=4))
        query = parse_query(query_text)
        IRFirstDPO(context).top_k(query, 25)
        counts = context.eval_cache.metrics_snapshot
        misses = counts()["eval_cache.contains.misses"]
        hits = counts()["eval_cache.contains.hits"]
        assert misses > 0
        DPO(context).top_k(query, 25)
        assert counts()["eval_cache.contains.misses"] == misses
        assert counts()["eval_cache.contains.hits"] > hits

    def test_each_satisfier_set_is_computed_once_per_walk(self, monkeypatch):
        """Successive levels keep the ``contains`` on the same tag: the walk
        computes one satisfier set per distinct ``(expression, tag)``."""
        context = QueryContext(generate_document(target_bytes=60_000, seed=4))
        query = parse_query(SELECTIVE)
        expected = DPO(context).top_k(query, 3)
        calls = []
        satisfiers = ir_first._satisfiers

        def counting(source, ftexpr, tag):
            calls.append((ftexpr, tag))
            return satisfiers(source, ftexpr, tag)

        monkeypatch.setattr(ir_first, "_satisfiers", counting)
        result = IRFirstDPO(context).top_k(query, 3)
        assert result.levels_evaluated > len(set(calls)) == 4
        assert len(calls) == len(set(calls))
        assert [(a.node_id, a.score) for a in result.answers] == [
            (a.node_id, a.score) for a in expected.answers
        ]
