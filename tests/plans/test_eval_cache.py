"""The tier-1 EvaluationCache: memo behavior, instrumentation, wiring."""

import pytest

from repro.plans import EvaluationCache, PlanExecutor, build_strict_plan
from repro.plans.eval_cache import restriction_key
from repro.query import parse_query
from repro.topk import QueryContext
from repro.xmltree import parse
from tests.plans.test_binary_ids import NAVIGATION, count_calls

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

    @staticmethod
    def _resolver(calls):
        def resolve(missing):
            calls.append(missing)
            return {base: (base + 100,) for base in missing}

        return resolve

    def test_join_table_resolves_only_missing_bases(self):
        cache = EvaluationCache()
        calls = []
        table, resolved = cache.join_table("sig", {3, 1}, self._resolver(calls))
        assert (table, resolved) == ({1: (101,), 3: (103,)}, 2)
        again, resolved = cache.join_table("sig", {1, 2}, self._resolver(calls))
        assert again is table  # one table per signature, shared and live
        assert resolved == 1
        assert calls == [[1, 3], [2]]  # sorted, and only what was missing
        assert cache.join_table("sig", {1, 2, 3}, self._resolver(calls))[1] == 0
        assert len(calls) == 2
        assert cache.entry_count() == cache.info()["entries"] == 3

    def test_join_budget_counts_bases_over_all_tables(self):
        cache = EvaluationCache(max_entries=3)
        calls = []
        first, _ = cache.join_table("a", {1, 2}, self._resolver(calls))
        cache.join_table("b", {1}, self._resolver(calls))
        assert cache.entry_count() == 3
        assert cache.metrics_snapshot()["eval_cache.flushes"] == 0
        # One more base exceeds the budget: every table is dropped, and the
        # step in flight keeps the entries it had found present.
        table, resolved = cache.join_table("a", {1, 2, 7}, self._resolver(calls))
        assert resolved == 1
        assert table is not first
        assert table == {1: (101,), 2: (102,), 7: (107,)}
        assert cache.metrics_snapshot()["eval_cache.flushes"] == 1
        assert cache.entry_count() == 3
        # Table "b" went with the flush.
        assert cache.join_table("b", {1}, self._resolver(calls))[1] == 1

    def test_join_tables_survive_concurrent_fills_and_flushes(self):
        """More workers than cores, a budget small enough to flush all the
        time: every returned table still covers every base asked for with
        that signature's values, and the budget's count stays the sum of
        the tables."""
        import random
        import sys
        import threading
        import time

        cache = EvaluationCache(max_entries=40)
        wrong = []
        stop = time.monotonic() + 0.5

        def worker(seed):
            rng = random.Random(seed)
            while time.monotonic() < stop:
                signature = rng.randrange(3)
                bases = set(rng.sample(range(120), rng.randint(1, 25)))
                table, _resolved = cache.join_table(
                    signature,
                    bases,
                    lambda missing: {b: (b, signature) for b in missing},
                )
                wrong.extend(
                    (signature, base)
                    for base in bases
                    if table.get(base) != (base, signature)
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert cache.metrics_snapshot()["eval_cache.flushes"] > 0
        assert cache._join_entries == sum(map(len, cache._joins.values()))

    def test_join_probe_tallies_fold_into_the_counters(self):
        cache = EvaluationCache()
        cache.count_join_probes(5, 2)
        cache.count_join_probes(1, 0)
        snapshot = cache.metrics_snapshot()
        assert snapshot["eval_cache.join.hits"] == 6
        assert snapshot["eval_cache.join.misses"] == 2

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
        views = []

        def node_of(node_id):
            views.append(node_id)
            return context.document.node(node_id)

        for node in nodes:
            node_id = node.node_id
            assert cache.satisfies(ir, node_of, node_id, expr) == ir.satisfies(
                node, expr
            )
            assert cache.score(ir, node_of, node_id, expr) == ir.score(node, expr)
        snapshot = cache.metrics_snapshot()
        assert snapshot["eval_cache.contains.misses"] == 2 * len(nodes)
        assert snapshot["eval_cache.contains.hits"] == 0
        del views[:]
        for node in nodes:
            cache.satisfies(ir, node_of, node.node_id, expr)
            cache.score(ir, node_of, node.node_id, expr)
        assert views == []  # a hit never makes a node view
        snapshot = cache.metrics_snapshot()
        assert snapshot["eval_cache.contains.misses"] == 2 * len(nodes)
        assert snapshot["eval_cache.contains.hits"] == 2 * len(nodes)
        # A score asked for before any satisfies probe is a miss too.
        assert cache.score(ir, node_of, 0, parse_ftexpr('"ring"')) >= 0.0
        assert cache.metrics_snapshot()["eval_cache.contains.misses"] == (
            2 * len(nodes) + 1
        )

    def test_contains_budget_counts_entries_over_all_tables(self, context):
        """One table per expression; the budget is the sum of their entries,
        a score filling an existing entry adds nothing, and reaching the
        budget drops every table."""
        from repro.ir import parse_ftexpr

        cache = EvaluationCache(max_entries=3)
        ir, node_of = context.ir, context.document.node
        gold, ring = parse_ftexpr('"gold"'), parse_ftexpr('"ring"')
        cache.satisfies(ir, node_of, 0, gold)
        cache.score(ir, node_of, 0, gold)
        cache.satisfies(ir, node_of, 1, gold)
        cache.satisfies(ir, node_of, 0, ring)
        assert cache.entry_count() == cache.info()["entries"] == 3
        assert cache.metrics_snapshot()["eval_cache.flushes"] == 0
        cache.satisfies(ir, node_of, 1, ring)
        assert cache.metrics_snapshot()["eval_cache.flushes"] == 1
        assert cache.entry_count() == 1
        misses = cache.metrics_snapshot()["eval_cache.contains.misses"]
        cache.satisfies(ir, node_of, 0, gold)  # went with the flush
        assert cache.metrics_snapshot()["eval_cache.contains.misses"] == misses + 1

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
    def test_second_run_hits_every_tier(self, context, monkeypatch):
        plan = build_strict_plan(parse_query(QUERY), context.weights)
        calls = count_calls(monkeypatch, context.backend, NAVIGATION)
        context.executor.run(plan)
        # One kernel call per alternative needed: a merge for section (its
        # contains check reads the node), a probe pass for the paragraph leaf.
        assert sum(calls.values()) == len(plan.joins) == 2
        assert calls["structural_join_ids"] == calls["semi_join_ancestor_ids"] == 1
        cold = context.eval_cache.metrics_snapshot()
        result = context.executor.run(plan)
        warm = context.eval_cache.metrics_snapshot()
        assert result.answers
        # Every join table already covers every base: no kernel, no navigation.
        assert sum(calls.values()) == len(plan.joins)
        for kind in ("pool", "join", "contains"):
            assert warm["eval_cache.%s.hits" % kind] > cold[
                "eval_cache.%s.hits" % kind
            ], kind
            assert (
                warm["eval_cache.%s.misses" % kind]
                == cold["eval_cache.%s.misses" % kind]
            ), kind

    def test_join_probes_are_counted_per_tuple(self, context):
        """hits + misses = probes made with a bound base; a miss is a base
        that had to be resolved, whatever number of tuples shares it."""
        plan = build_strict_plan(
            parse_query("//lib//paragraph"), context.weights
        )
        stats = context.executor.run(plan).stats
        snapshot = context.eval_cache.metrics_snapshot()
        assert snapshot["eval_cache.join.misses"] == 1  # the one <lib> base
        assert snapshot["eval_cache.join.hits"] == 0
        assert stats.tuples_produced == 1 + 2
        context.executor.run(plan)
        snapshot = context.eval_cache.metrics_snapshot()
        assert snapshot["eval_cache.join.misses"] == 1
        assert snapshot["eval_cache.join.hits"] == 1

    def test_levels_sharing_a_join_signature_share_one_table(
            self, context, monkeypatch):
        from repro.plans import SSO_MODE, build_encoded_plan
        from repro.relax import RelaxationSchedule

        query = parse_query(QUERY)
        schedule = RelaxationSchedule(query, context.penalties)
        context.executor.run(build_strict_plan(query, context.weights))
        joins = context.eval_cache._joins
        strict_tables = dict(joins)
        assert strict_tables
        calls = count_calls(monkeypatch, context.backend, NAVIGATION)
        relaxed = build_encoded_plan(schedule, len(schedule))
        context.executor.run(relaxed, k=5, mode=SSO_MODE)
        for signature, table in strict_tables.items():
            assert joins[signature] is table
        # Only signatures the strict level never used needed a merge.
        assert sum(calls.values()) <= len(joins) - len(strict_tables)
        assert context.eval_cache.entry_count() >= sum(map(len, joins.values()))

    def test_warm_tables_hold_nothing_the_collector_tracks(self, context):
        """What makes a full collection cheap over a warm cache: every join
        and contains entry is an int mapped to a tuple of scalars, which the
        collector drops from its lists at its first visit (a tuple key that
        holds the expression would stay tracked for life)."""
        import gc

        context.executor.run(build_strict_plan(parse_query(QUERY), context.weights))
        cache = context.eval_cache
        gc.collect()
        assert len(cache._contains) == 1  # one table for the one expression
        entries = [
            entry
            for tables in (cache._joins, cache._contains)
            for table in tables.values()
            for entry in table.items()
        ]
        assert entries
        for key, value in entries:
            assert type(key) is int
            assert not gc.is_tracked(value), (key, value)

    def test_uncached_engine_is_identical_to_cached(self):
        from repro import Engine
        from repro.xmark import generate_document

        document = generate_document(target_bytes=30_000, seed=3)
        queries = (
            "//item[./description/parlist and ./mailbox/mail/text]",
            '//item[./name and ./description[.contains("gold")]]',
            "//item/*[./parlist]",
        )
        for algorithm in ("dpo", "sso", "hybrid"):
            for text in queries:
                cached = Engine(document).query(text, k=5, algorithm=algorithm)
                bare = Engine(document, cache=False).query(
                    text, k=5, algorithm=algorithm
                )
                assert [
                    (a.node_id, a.score, a.relaxation_level, a.satisfied)
                    for a in cached.answers
                ] == [
                    (a.node_id, a.score, a.relaxation_level, a.satisfied)
                    for a in bare.answers
                ]
                assert [s.as_dict() for s in cached.stats] == [
                    s.as_dict() for s in bare.stats
                ]

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
