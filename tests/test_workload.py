"""The workload generator: satisfiability and variety guarantees."""

import pytest

from repro.topk import DPO, Hybrid, QueryContext, SSO
from repro.workload import generate_workload
from repro.xmark import generate_document
from tests.spec.evaluate import evaluate


@pytest.fixture(scope="module")
def doc():
    return generate_document(target_bytes=30_000, seed=12)


class TestGeneration:
    def test_requested_count(self, doc):
        queries = generate_workload(doc, 10, seed=1)
        assert len(queries) == 10

    def test_deterministic(self, doc):
        first = generate_workload(doc, 8, seed=3)
        second = generate_workload(doc, 8, seed=3)
        assert first == second

    def test_seeds_differ(self, doc):
        assert generate_workload(doc, 8, seed=3) != generate_workload(
            doc, 8, seed=4
        )

    def test_every_query_satisfiable(self, doc):
        from repro.ir import IREngine

        ir = IREngine(doc)
        oracle = lambda node, expr: ir.satisfies(node, expr)
        for query in generate_workload(doc, 15, seed=5):
            answers = evaluate(query, doc, contains_oracle=oracle)
            assert answers, query.to_xpath()

    def test_variety(self, doc):
        queries = generate_workload(doc, 20, seed=7)
        assert len(set(queries)) >= 10
        sizes = {query.size() for query in queries}
        assert len(sizes) >= 2

    def test_contains_rate_controllable(self, doc):
        never = generate_workload(doc, 10, seed=1, contains_probability=0.0)
        assert all(not q.contains for q in never)
        always = generate_workload(doc, 10, seed=1, contains_probability=1.0)
        assert any(q.contains for q in always)

    def test_trunk_length_bounded(self, doc):
        queries = generate_workload(doc, 10, seed=2, max_trunk=1,
                                    max_branches=0)
        assert all(q.size() == 1 for q in queries)


class TestAlgorithmsOnWorkload:
    """A broad sweep: the three algorithms agree on generated queries."""

    def test_agreement_across_workload(self, doc):
        context = QueryContext(doc)
        algorithms = [DPO(context), SSO(context), Hybrid(context)]
        for query in generate_workload(doc, 8, seed=9):
            results = [a.top_k(query, 5) for a in algorithms]
            exact_sets = [
                {x.node_id for x in r.answers if x.relaxation_level == 0}
                for r in results
            ]
            assert exact_sets[0] == exact_sets[1] == exact_sets[2], (
                query.to_xpath()
            )
            # SSO and Hybrid agree completely.
            assert [a.node_id for a in results[1].answers] == [
                a.node_id for a in results[2].answers
            ]
