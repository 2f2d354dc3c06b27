"""The tier-1 EvaluationCache: memo behavior, instrumentation, wiring."""

import pytest

from repro.plans import EvaluationCache, PlanExecutor, build_strict_plan
from repro.plans.eval_cache import restriction_key
from repro.query import parse_query
from repro.topk import QueryContext
from repro.xmltree import parse

XML = (
    "<lib>"
    "<article><title>gold ring</title>"
    "<section><paragraph>vintage gold</paragraph></section></article>"
    "<article><section><paragraph>stamp</paragraph></section></article>"
    "<note>gold</note>"
    "</lib>"
)

QUERY = '//article[./section[./paragraph and .contains("gold")]]'


@pytest.fixture()
def context():
    return QueryContext(parse(XML))


class TestUnit:
    def test_pool_miss_then_hit(self):
        cache = EvaluationCache()
        key = ("article", (), None)
        assert cache.get_pool(key) is None
        cache.put_pool(key, (1, 2))
        assert cache.get_pool(key) == (1, 2)
        snapshot = cache.metrics_snapshot()
        assert snapshot["eval_cache.pool.misses"] == 1
        assert snapshot["eval_cache.pool.hits"] == 1

    def test_join_flushes_at_capacity(self):
        cache = EvaluationCache(max_entries=2)
        cache.put_join("a", ())
        cache.put_join("b", ())
        cache.put_join("c", ())  # exceeds the budget: flush, then insert
        assert cache.get_join("a") is None
        assert cache.get_join("c") == ()
        assert cache.metrics_snapshot()["eval_cache.flushes"] == 1

    def test_satisfier_set_computes_once(self):
        cache = EvaluationCache()
        calls = []

        def compute():
            calls.append(1)
            return frozenset({7})

        assert cache.satisfier_set("key", compute) == frozenset({7})
        assert cache.satisfier_set("key", compute) == frozenset({7})
        assert len(calls) == 1

    def test_contains_counts_every_probe_once(self, context):
        """``satisfies`` and ``score`` are separate probes sharing an entry:
        on fresh nodes both miss, on a second pass both hit, and hits +
        misses is the number of probes made."""
        from repro.ir import parse_ftexpr

        cache = EvaluationCache()
        ir = context.ir
        expr = parse_ftexpr('"gold"')
        nodes = list(context.document.nodes())
        for node in nodes:
            assert cache.satisfies(ir, node, expr) == ir.satisfies(node, expr)
            assert cache.score(ir, node, expr) == ir.score(node, expr)
        snapshot = cache.metrics_snapshot()
        assert snapshot["eval_cache.contains.misses"] == 2 * len(nodes)
        assert snapshot["eval_cache.contains.hits"] == 0
        for node in nodes:
            cache.satisfies(ir, node, expr)
            cache.score(ir, node, expr)
        snapshot = cache.metrics_snapshot()
        assert snapshot["eval_cache.contains.misses"] == 2 * len(nodes)
        assert snapshot["eval_cache.contains.hits"] == 2 * len(nodes)
        # A score asked for before any satisfies probe is a miss too.
        assert cache.score(ir, nodes[0], parse_ftexpr('"ring"')) >= 0.0
        assert cache.metrics_snapshot()["eval_cache.contains.misses"] == (
            2 * len(nodes) + 1
        )

    def test_disabled_satisfier_set_computes_every_time(self):
        cache = EvaluationCache()
        cache.enabled = False
        calls = []

        def compute():
            calls.append(1)
            return frozenset()

        cache.satisfier_set("key", compute)
        cache.satisfier_set("key", compute)
        assert len(calls) == 2
        assert cache.entry_count() == 0

    def test_clear_drops_entries_keeps_counters(self):
        cache = EvaluationCache()
        cache.put_pool("p", ())
        cache.get_pool("p")
        cache.clear()
        assert cache.entry_count() == 0
        assert cache.metrics_snapshot()["eval_cache.pool.hits"] == 1
        assert cache.get_pool("p") is None

    def test_hit_ratio(self):
        cache = EvaluationCache()
        assert cache.hit_ratio() is None
        cache.get_pool("p")  # miss
        cache.put_pool("p", ())
        cache.get_pool("p")  # hit
        assert cache.hit_ratio() == 0.5

    def test_restriction_key(self):
        assert restriction_key(None) is None
        frozen = frozenset({1})
        assert restriction_key(frozen) is frozen
        assert restriction_key({1, 2}) == frozenset({1, 2})


class TestExecutorIntegration:
    def test_second_run_hits_every_tier(self, context):
        plan = build_strict_plan(parse_query(QUERY), context.weights)
        context.executor.run(plan)
        cold = context.eval_cache.metrics_snapshot()
        result = context.executor.run(plan)
        warm = context.eval_cache.metrics_snapshot()
        assert result.answers
        for kind in ("pool", "join", "contains"):
            assert warm["eval_cache.%s.hits" % kind] > cold[
                "eval_cache.%s.hits" % kind
            ], kind
            assert (
                warm["eval_cache.%s.misses" % kind]
                == cold["eval_cache.%s.misses" % kind]
            ), kind

    def test_cached_run_matches_uncached(self, context):
        plan = build_strict_plan(parse_query(QUERY), context.weights)
        warmup = context.executor.run(plan)
        cached = context.executor.run(plan)
        bare = PlanExecutor(context.document, context.ir).run(plan)

        def canonical(result):
            return sorted(
                (a.node_id, a.score.structural, a.score.keyword, a.satisfied)
                for a in result.answers
            )

        assert canonical(cached) == canonical(bare) == canonical(warmup)

    def test_disabled_cache_records_nothing(self, context):
        context.eval_cache.enabled = False
        plan = build_strict_plan(parse_query(QUERY), context.weights)
        context.executor.run(plan)
        snapshot = context.eval_cache.metrics_snapshot()
        assert all(value == 0 for value in snapshot.values())
        assert context.eval_cache.entry_count() == 0

    def test_executor_without_cache_unchanged(self, context):
        executor = PlanExecutor(context.document, context.ir)
        plan = build_strict_plan(parse_query(QUERY), context.weights)
        result = executor.run(plan)
        assert result.answers

    def test_pool_restrictions_partition_the_cache(self, context):
        plan = build_strict_plan(parse_query("//article"), context.weights)
        unrestricted = context.executor.run(plan)
        article_ids = [n.node_id for n in context.document.nodes_with_tag("article")]
        restricted = context.executor.run(
            plan, pool_restrictions={plan.root_var: {article_ids[0]}}
        )
        assert len(unrestricted.answers) == 2
        assert [a.node_id for a in restricted.answers] == [article_ids[0]]


class TestContextLifecycle:
    def test_corpus_growth_clears_eval_cache(self):
        from repro.collection import Corpus

        corpus = Corpus()
        corpus.add_text(XML)
        context = QueryContext(corpus)
        plan = build_strict_plan(parse_query(QUERY), context.weights)
        context.executor.run(plan)
        assert context.eval_cache.entry_count() > 0
        corpus.add_text("<article><section><paragraph>gold</paragraph></section></article>")
        assert context.eval_cache.entry_count() == 0
        # The fresh document must be visible through the caches.
        result = context.executor.run(plan)
        assert len(result.answers) == 2
