"""The tier-1 EvaluationCache: memo behavior, instrumentation, wiring."""

import sys
import threading

import pytest

from repro.plans import SSO_MODE, EvaluationCache, PlanExecutor, build_strict_plan
from repro.plans.eval_cache import TIERS, restriction_key
from repro.query import parse_query
from repro.topk import QueryContext
from repro.topk.base import Scatter
from repro.xmltree import parse
from tests.plans.test_binary_ids import KERNELS, count_calls

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
        assert cache.value("pool", key, lambda: (1, 2)) == (1, 2)
        assert cache.value("pool", key, lambda: pytest.fail("recomputed")) == (1, 2)
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
        table = cache.table("join", "sig", {3, 1}, self._resolver(calls), 2)
        assert table == {1: (101,), 3: (103,)}
        again = cache.table("join", "sig", {1, 2}, self._resolver(calls), 2)
        assert again is table  # one table per key, shared and live
        assert calls == [[1, 3], [2]]  # sorted, and only what was missing
        cache.table("join", "sig", {1, 2, 3}, self._resolver(calls), 3)
        assert len(calls) == 2
        assert cache.info()["entries"] == 3

    def test_join_budget_counts_bases_over_all_tables(self):
        cache = EvaluationCache(max_entries=3)
        calls = []
        first = cache.table("join", "a", {1, 2}, self._resolver(calls), 2)
        cache.table("join", "b", {1}, self._resolver(calls), 1)
        assert cache.info()["entries"] == 3
        assert cache.metrics_snapshot()["eval_cache.flushes"] == 0
        # One more base exceeds the budget: every table is dropped, and the
        # step in flight keeps the entries it had found present.
        table = cache.table("join", "a", {1, 2, 7}, self._resolver(calls), 3)
        assert calls[-1] == [7]
        assert table is not first
        assert table == {1: (101,), 2: (102,), 7: (107,)}
        assert cache.metrics_snapshot()["eval_cache.flushes"] == 1
        assert cache.info()["entries"] == 3
        # Table "b" went with the flush.
        cache.table("join", "b", {1}, self._resolver(calls), 1)
        assert calls[-1] == [1]

    def test_join_tables_survive_concurrent_fills_and_flushes(self):
        """More workers than cores, a budget small enough to flush all the
        time, on both table tiers: every returned table still covers every
        id asked for with that key's values, and each tier's count stays
        the sum of its tables."""
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
                tier = rng.choice(("join", "contains"))
                key = rng.randrange(3)
                ids = set(rng.sample(range(120), rng.randint(1, 25)))
                table = cache.table(
                    tier,
                    key,
                    ids,
                    lambda missing: {i: (i, tier, key) for i in missing},
                    len(ids),
                )
                wrong.extend(
                    (tier, key, node_id)
                    for node_id in ids
                    if table.get(node_id) != (node_id, tier, key)
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
        for name in ("join", "contains"):
            tier = cache._tiers[name]
            assert tier.flushes > 0, name
            assert tier.entries == sum(map(len, tier.data.values())), name

    def test_join_probe_tallies_fold_into_the_counters(self):
        """A table call counts its own probes: misses are the ids it had to
        resolve, hits the rest of ``probes`` (tuples sharing an id each
        count)."""
        cache = EvaluationCache()
        cache.table("join", "sig", {1, 2}, self._resolver([]), 7)
        cache.table("join", "sig", {1, 2, 3}, self._resolver([]), 1 + 2 + 3)
        snapshot = cache.metrics_snapshot()
        assert snapshot["eval_cache.join.hits"] == 5 + 5
        assert snapshot["eval_cache.join.misses"] == 2 + 1

    def test_contains_table_holds_scores_and_none(self, context, monkeypatch):
        """One ``node id → score`` table per expression, ``None`` where the
        node does not satisfy it, filled through the executor's resolver:
        no node view, one ``ir.contains_scores`` call per stride of
        missing ids."""
        from repro.ir import parse_ftexpr
        from repro.plans import executor as executor_module

        ir = context.ir
        expr = parse_ftexpr('"gold"')
        executor = PlanExecutor(context.backend, ir, eval_cache=EvaluationCache())
        nodes = list(context.document.nodes())
        ids = {node.node_id for node in nodes}
        stride = 3
        monkeypatch.setattr(executor_module, "CHECKPOINT_STRIDE", stride)
        views = count_calls(monkeypatch, context.backend, ["node"])
        made = count_calls(monkeypatch, context.document, ["node"])
        door_calls = []
        door = ir.contains_scores

        def counting(expression, node_ids):
            door_calls.append(list(node_ids))
            return door(expression, node_ids)

        monkeypatch.setattr(ir, "contains_scores", counting)
        table = executor.contains_table(expr, ids, len(ids))
        assert views["node"] == made["node"] == 0
        assert len(door_calls) == -(-len(ids) // stride) > 1
        assert [i for call in door_calls for i in call] == sorted(ids)
        assert max(len(call) for call in door_calls) == stride
        for node in nodes:
            expected = ir.score(node, expr) if ir.satisfies(node, expr) else None
            assert table[node.node_id] == expected
        assert {value is None for value in table.values()} == {True, False}
        del door_calls[:]
        assert executor.contains_table(expr, ids, 2 * len(ids)) is table
        assert door_calls == []  # a warm table asks the door nothing
        snapshot = executor.eval_cache.metrics_snapshot()
        assert snapshot["eval_cache.contains.misses"] == len(ids)
        assert snapshot["eval_cache.contains.hits"] == 2 * len(ids)

    def test_contains_budget_counts_entries_over_all_tables(self):
        """One table per expression; the budget is the sum of their entries,
        and an insert past it drops every table."""
        cache = EvaluationCache(max_entries=3)

        def resolve(missing):
            return dict.fromkeys(missing, 0.5)

        cache.table("contains", "gold", {0, 1}, resolve, 2)
        cache.table("contains", "ring", {0}, resolve, 1)
        assert cache.info()["entries"] == 3
        assert cache.metrics_snapshot()["eval_cache.flushes"] == 0
        cache.table("contains", "ring", {1}, resolve, 1)
        assert cache.metrics_snapshot()["eval_cache.flushes"] == 1
        assert cache.info()["entries"] == 1
        misses = cache.metrics_snapshot()["eval_cache.contains.misses"]
        cache.table("contains", "gold", {0}, resolve, 1)  # went with the flush
        assert cache.metrics_snapshot()["eval_cache.contains.misses"] == misses + 1

    def test_every_tier_is_bounded(self):
        """``pool`` keeps a budget of its own too, and ``info()`` reports
        the sum of the four budgets."""
        assert TIERS == ("pool", "join", "contains", "subtree")
        cache = EvaluationCache(max_entries=3)
        for key in range(10):
            cache.value("pool", key, lambda: (1,))
        info = cache.info()
        assert info["max_entries"] == len(TIERS) * 3
        assert info["entries"] <= info["max_entries"]
        assert info["entries"] == 1  # 10 inserts, flushed at 4, 7 and 10
        assert info["evictions"] == 3
        assert cache.max_entries == 3
        cache.max_entries = 5
        assert cache.info()["max_entries"] == len(TIERS) * 5

    def test_disabled_cache_computes_every_time_and_records_nothing(self):
        cache = EvaluationCache()
        cache.enabled = False
        calls = []

        def resolve(missing):
            calls.append(missing)
            return dict.fromkeys(missing, 0.0)

        for _ in range(2):
            assert cache.value("pool", "p", lambda: calls.append("p") or (1,)) == (1,)
            assert cache.table("contains", "e", {2, 1}, resolve, 5) == {1: 0.0, 2: 0.0}
        assert calls == ["p", [1, 2], "p", [1, 2]]
        info = cache.info()
        assert info.pop("max_entries") == len(TIERS) * cache.max_entries
        assert set(info.values()) == {0}
        assert set(cache.metrics_snapshot().values()) == {0}

    def test_clear_drops_entries_keeps_counters(self):
        cache = EvaluationCache()
        cache.value("pool", "p", tuple)
        cache.value("pool", "p", tuple)
        cache.clear()
        assert cache.info()["entries"] == 0
        assert cache.info()["invalidations"] == 1
        assert cache.metrics_snapshot()["eval_cache.pool.hits"] == 1
        cache.value("pool", "p", tuple)
        assert cache.metrics_snapshot()["eval_cache.pool.misses"] == 2

    def test_restriction_key(self):
        assert restriction_key(None) is None
        frozen = frozenset({1})
        assert restriction_key(frozen) is frozen
        assert restriction_key({1, 2}) == frozenset({1, 2})


class TestExecutorIntegration:
    def test_second_run_hits_every_tier(self, context, monkeypatch):
        plan = build_strict_plan(parse_query(QUERY), context.weights)
        calls = count_calls(monkeypatch, context.backend, KERNELS)
        context.executor.run(plan, mode=SSO_MODE)
        # One kernel call per alternative needed: a merge for section (its
        # contains check reads the node), a probe pass for the paragraph leaf.
        assert sum(calls.values()) == len(plan.joins) == 2
        assert calls["structural_join_ids"] == calls["semi_join_ancestor_ids"] == 1
        cold = context.eval_cache.metrics_snapshot()
        result = context.executor.run(plan, mode=SSO_MODE)
        warm = context.eval_cache.metrics_snapshot()
        assert result.answers
        # Every join table already covers every base: no further kernel call.
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
        stats = context.executor.run(plan, mode=SSO_MODE).stats
        snapshot = context.eval_cache.metrics_snapshot()
        assert snapshot["eval_cache.join.misses"] == 1  # the one <lib> base
        assert snapshot["eval_cache.join.hits"] == 0
        assert stats.tuples_produced == 1 + 2
        context.executor.run(plan, mode=SSO_MODE)
        snapshot = context.eval_cache.metrics_snapshot()
        assert snapshot["eval_cache.join.misses"] == 1
        assert snapshot["eval_cache.join.hits"] == 1

    def test_levels_sharing_a_join_signature_share_one_table(
            self, context, monkeypatch):
        from repro.plans import build_encoded_plan
        from repro.relax import RelaxationSchedule

        query = parse_query(QUERY)
        schedule = RelaxationSchedule(query, context.penalties)
        context.executor.run(build_strict_plan(query, context.weights), mode=SSO_MODE)
        joins = context.eval_cache._tiers["join"].data
        strict_tables = dict(joins)
        assert strict_tables
        calls = count_calls(monkeypatch, context.backend, KERNELS)
        relaxed = build_encoded_plan(schedule, len(schedule))
        context.executor.run(relaxed, k=5, mode=SSO_MODE)
        for signature, table in strict_tables.items():
            assert joins[signature] is table
        # Only signatures the strict level never used needed a merge.
        assert sum(calls.values()) <= len(joins) - len(strict_tables)
        assert context.eval_cache.info()["entries"] >= sum(map(len, joins.values()))

    def test_warm_tables_hold_nothing_the_collector_tracks(self, context):
        """What makes a full collection cheap over a warm cache: every join
        and contains entry is an int mapped to a float, ``None`` or a tuple
        of ints, which the collector never tracks or drops from its lists at
        its first visit (a tuple key that holds the expression would stay
        tracked for life)."""
        import gc

        plan = build_strict_plan(parse_query(QUERY), context.weights)
        context.executor.run(plan, mode=SSO_MODE)
        context.executor.run(plan)
        tiers = context.eval_cache._tiers
        gc.collect()
        assert len(tiers["contains"].data) == 1  # one table for the one expression
        assert tiers["subtree"].data
        entries = [
            entry
            for name in ("join", "contains", "subtree")
            for table in tiers[name].data.values()
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
                # A strict run counts only the tables it resolved, so the
                # cached engine produces at most what the bare one does.
                cached_stats = [s.as_dict() for s in cached.stats]
                bare_stats = [s.as_dict() for s in bare.stats]
                assert sum(s.pop("tuples_produced") for s in cached_stats) <= sum(
                    s.pop("tuples_produced") for s in bare_stats
                )
                assert cached_stats == bare_stats

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
        assert context.eval_cache.info()["entries"] == 0

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
    def test_the_next_scatter_after_corpus_growth_clears_eval_cache(self):
        from repro.collection import Corpus

        corpus = Corpus()
        corpus.add_text(XML)
        context = QueryContext(corpus)
        tpq = parse_query(QUERY)
        plan = build_strict_plan(tpq, context.weights)
        Scatter(context, context.compile(tpq))
        context.executor.run(plan)
        entries = context.eval_cache.info()["entries"]
        assert entries > 0
        # Fencing at the version the entries were filled at keeps them.
        Scatter(context, context.compile(tpq))
        assert context.eval_cache.info()["entries"] == entries
        corpus.add_text("<article><section><paragraph>gold</paragraph></section></article>")
        assert context.eval_cache.info()["entries"] == entries
        # A query's scatter fences on the grown version before any probe.
        Scatter(context, context.compile(tpq))
        assert context.eval_cache.info()["entries"] == 0
        assert context.eval_cache.info()["invalidations"] == 1
        # The fresh document must be visible through the caches.
        result = context.executor.run(plan)
        assert len(result.answers) == 2

    def test_no_query_reads_a_stale_entry_while_others_fence(self):
        """Queries at a new version fence concurrently; each must see the
        version current only once the stale entries are gone."""
        cache = EvaluationCache()
        workers = 8
        for round_index in range(100):
            cache.fence(2 * round_index)
            for key in range(200):
                cache.value("pool", key, lambda: "stale")
            start = threading.Barrier(workers, timeout=10)
            seen = []

            def query():
                start.wait()
                cache.fence(2 * round_index + 1)
                seen.append(cache.value("pool", 199, lambda: "fresh"))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=query) for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert seen == ["fresh"] * workers


class TestSubtreeTier:
    """The twig operator's tables, and what a twig run counts."""

    @staticmethod
    def _twig(context, text):
        return build_strict_plan(parse_query(text), context.weights)

    def test_tuples_produced_counts_the_tables_a_run_resolved(self, context):
        """Pool ids of the subtree tables the run resolved, nothing for a
        table found cached: a level pays for the branch it changed."""
        pool = {
            tag: len(context.document.nodes_with_tag(tag))
            for tag in ("article", "section", "paragraph", "title")
        }
        executor = context.executor
        narrow = self._twig(context, "//article[./section/paragraph]")
        cold = executor.run(narrow)
        assert cold.stats.tuples_produced == (
            pool["article"] + pool["section"] + pool["paragraph"]
        )
        snapshot = context.eval_cache.metrics_snapshot()
        assert snapshot["eval_cache.subtree.misses"] == cold.stats.tuples_produced
        assert snapshot["eval_cache.subtree.hits"] == 0

        warm = executor.run(narrow)
        assert warm.stats.tuples_produced == 0
        assert warm.answers == cold.answers
        snapshot = context.eval_cache.metrics_snapshot()
        assert snapshot["eval_cache.subtree.hits"] == pool["article"]  # the root

        # One more branch: the section subtree is a hit, the root and the
        # new leaf resolve.
        wider = executor.run(
            self._twig(context, "//article[./section/paragraph and ./title]")
        )
        assert wider.stats.tuples_produced == pool["article"] + pool["title"]
        tier = context.eval_cache._tiers["subtree"]
        assert tier.entries == sum(map(len, tier.data.values()))

    def test_answers_deduped_counts_excluded_matches(self, context):
        """Excluded ids among the distinguished variable's matches; an
        excluded id that is no match counts nothing."""
        plan = self._twig(context, "//article[./section/paragraph]")
        matches = [answer.node_id for answer in context.executor.run(plan).answers]
        assert len(matches) == 2
        note = context.document.nodes_with_tag("note")[0].node_id
        result = context.executor.run(
            plan, exclude_answer_ids={matches[0], note}
        )
        assert result.stats.answers_deduped == 1
        assert [answer.node_id for answer in result.answers] == matches[1:]
        assert result.stats.max_intermediate == len(matches)
        assert result.stats.answers_before_dedup == 1

    def test_attribute_predicates_key_the_table(self):
        """Two plans that differ only in a child's attribute predicate share
        no table: with the unfiltered one cached, the filtered one still
        answers as the uncached binary pipeline does."""
        context = QueryContext(parse(
            '<lib><article><section id="s1"><paragraph/></section></article>'
            '<article><section id="s2"><paragraph/></section></article></lib>'
        ))
        context.executor.run(self._twig(context, "//article[./section/paragraph]"))
        filtered = self._twig(context, '//article[./section[@id="s1"]/paragraph]')
        got = [answer.node_id for answer in context.executor.run(filtered).answers]
        bare = PlanExecutor(context.document, context.ir).run(
            filtered, mode=SSO_MODE
        )
        assert len(got) == 1
        assert got == [answer.node_id for answer in bare.answers]
