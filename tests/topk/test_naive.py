"""The naive-rewriting baseline."""

import pytest

from repro.query import parse_query
from repro.topk import DPO, NaiveRewriting, QueryContext
from repro.xmark import generate_document

QUERY = "//item[./description/parlist and ./mailbox/mail/text]"


@pytest.fixture(scope="module")
def context():
    return QueryContext(generate_document(target_bytes=40_000, seed=21))


class TestNaive:
    def test_agrees_with_dpo_on_answers(self, context):
        query = parse_query(QUERY)
        for k in (5, 30, 100):
            naive = NaiveRewriting(context).top_k(query, k)
            dpo = DPO(context).top_k(query, k)
            assert [a.node_id for a in naive.answers] == [
                a.node_id for a in dpo.answers
            ]
            for left, right in zip(naive.answers, dpo.answers):
                assert left.score.structural == pytest.approx(
                    right.score.structural
                )

    def test_always_evaluates_every_level(self, context):
        query = parse_query(QUERY)
        schedule = context.schedule(query)
        naive = NaiveRewriting(context).top_k(query, 1)
        dpo = DPO(context).top_k(query, 1)
        assert naive.levels_evaluated == len(schedule) + 1
        assert dpo.levels_evaluated == 1  # the optimization being measured

    def test_does_more_work_than_dpo(self):
        # Uncached: a strict run counts the tables it resolves, and a warm
        # cache would hide the work being compared.
        context = QueryContext(generate_document(target_bytes=40_000, seed=21))
        context.eval_cache.enabled = False
        query = parse_query(QUERY)
        naive = NaiveRewriting(context).top_k(query, 5)
        dpo = DPO(context).top_k(query, 5)
        naive_tuples = sum(s.tuples_produced for s in naive.stats)
        dpo_tuples = sum(s.tuples_produced for s in dpo.stats)
        assert naive_tuples > dpo_tuples
