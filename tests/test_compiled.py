"""The compile phase: CompiledQuery artifacts, the PlanCache, query_many."""

import threading
import time

import pytest

from repro import CompiledQuery, FleXPath, compile_query
from repro import compiled as compiled_module
from repro.collection import Corpus
from repro.errors import FleXPathError
from repro.obs.metrics import REGISTRY
from repro.plans import build_encoded_plan, build_strict_plan, lower_plan
from repro.query.parser import parse_query
from repro.topk import DPO, SSO
from repro.topk.base import QueryContext
from repro.xmark import generate_document
from repro.xmltree.parser import parse
from tests.conftest import LIBRARY_XML

QUERY = '//article[./section[./paragraph and .contains("streaming")]]'


pytestmark = pytest.mark.usefixtures("clean_observability")


def _counter(name):
    return REGISTRY.as_dict()["counters"].get(name, 0)


@pytest.fixture()
def context():
    return QueryContext(parse(LIBRARY_XML))


@pytest.fixture()
def lowerings(monkeypatch):
    """The family (``strict``) of every plan the compile module lowers."""
    families = []

    def counted(plan, statistics, strict):
        families.append(strict)
        return lower_plan(plan, statistics, strict=strict)

    monkeypatch.setattr(compiled_module, "lower_plan", counted)
    return families


class TestCompiledQuery:
    def test_immutable(self, context):
        compiled = compile_query(context, parse_query(QUERY))
        with pytest.raises(AttributeError):
            compiled.tpq = None
        with pytest.raises(AttributeError):
            compiled.schedule = None
        with pytest.raises(AttributeError):
            del compiled.tpq

    def test_plans_are_lowered_on_first_ask_and_kept(self, context, lowerings):
        compiled = compile_query(context, parse_query(QUERY))
        assert lowerings == []
        levels = len(compiled.schedule) + 1
        assert compiled.level_count() == levels
        for level in range(levels):
            strict = compiled.strict_plan(level)
            assert strict is compiled.strict_plan(level)
            assert strict == lower_plan(
                build_strict_plan(compiled.schedule.level(level).query,
                                  compiled.weights),
                context.statistics, strict=True,
            )
            encoded = compiled.encoded_plan(level)
            assert encoded is compiled.encoded_plan(level)
            assert encoded == lower_plan(
                build_encoded_plan(compiled.schedule, level),
                context.statistics, strict=False,
            )
        assert lowerings.count(True) == lowerings.count(False) == levels
        assert len(lowerings) == 2 * levels

    def test_captures_the_query(self, context):
        tpq = parse_query(QUERY)
        compiled = compile_query(context, tpq)
        assert compiled.tpq is tpq
        assert compiled.contains_count() == len(tpq.contains)
        assert compiled.structural_score(0) == pytest.approx(
            compiled.schedule.structural_score(0)
        )

    def test_pure_producer_distinct_artifacts(self, context):
        tpq = parse_query(QUERY)
        first = compile_query(context, tpq)
        second = compile_query(context, tpq)
        assert first is not second
        assert len(first.schedule) == len(second.schedule)

    def test_repr(self, context):
        compiled = compile_query(context, parse_query("//article"))
        assert "CompiledQuery" in repr(compiled)


class TestLazyLowering:
    """A level's plan is lowered when a strategy first asks for it, once,
    against the statistics of the artifact's corpus version only."""

    def test_dpo_lowers_the_strict_plans_of_the_levels_it_walks(
            self, context, lowerings):
        result = DPO(context).top_k(parse_query(QUERY), 3)
        assert 0 < result.relaxations_used < len(context.schedule(parse_query(QUERY)))
        assert lowerings == [True] * (result.relaxations_used + 1)

    def test_sso_lowers_one_encoded_plan_per_run(self, lowerings):
        context = QueryContext(generate_document(target_bytes=40_000, seed=21))

        class Optimist:
            def estimate(self, query):
                return 10_000.0  # always claims plenty: every level restarts

        context.estimator = Optimist()
        result = SSO(context).top_k(
            parse_query("//item[./description/parlist and ./mailbox/mail/text]"),
            30,
        )
        assert result.restarts > 0
        assert lowerings == [False] * (result.restarts + 1)

    def test_racing_threads_share_one_plan(self, context, monkeypatch):
        def slow(plan, statistics, strict):
            time.sleep(0.05)
            return lower_plan(plan, statistics, strict=strict)

        monkeypatch.setattr(compiled_module, "lower_plan", slow)
        compiled = compile_query(context, parse_query(QUERY))
        barrier = threading.Barrier(2)
        got = []

        def ask():
            barrier.wait()
            got.append(compiled.encoded_plan(1))

        threads = [threading.Thread(target=ask) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(got) == 2
        assert got[0] is got[1] is compiled.encoded_plan(1)

    def test_a_grown_corpus_fails_closed(self, lowerings):
        corpus = Corpus()
        corpus.add_text(LIBRARY_XML)
        context = QueryContext(corpus)
        compiled = compile_query(context, parse_query(QUERY))
        kept = compiled.strict_plan(0)
        corpus.add_text("<article><section><paragraph>streaming"
                        "</paragraph></section></article>")
        with pytest.raises(FleXPathError, match="changed since"):
            compiled.strict_plan(1)
        with pytest.raises(FleXPathError, match="changed since"):
            compiled.encoded_plan(0)
        assert lowerings == [True]
        assert compiled.strict_plan(0) is kept


class TestContextCompile:
    def test_warm_hit_returns_same_artifact(self, context):
        tpq = parse_query(QUERY)
        first = context.compile(tpq)
        second = context.compile(tpq)
        assert first is second
        assert isinstance(first, CompiledQuery)
        assert context.plan_cache.hits == 1
        assert context.plan_cache.misses == 1

    def test_schedule_delegates_to_plan_cache(self, context):
        tpq = parse_query(QUERY)
        assert context.schedule(tpq) is context.schedule(tpq)
        assert context.schedule(tpq) is context.compile(tpq).schedule

    def test_request_shape_is_part_of_the_key(self, context):
        tpq = parse_query(QUERY)
        full = context.compile(tpq)
        capped = context.compile(tpq, max_relaxations=1)
        assert full is not capped
        assert len(capped.schedule) <= 1

    def test_corpus_growth_fences_and_invalidates(self):
        corpus = Corpus()
        corpus.add_text(LIBRARY_XML)
        context = QueryContext(corpus)
        tpq = parse_query(QUERY)
        other = parse_query("//article[./title]")
        before = context.compile(tpq)
        context.compile(other)
        assert before.corpus_version == corpus.version
        corpus.add_text("<article><section><paragraph>streaming"
                        "</paragraph></section></article>")
        # Nothing tells the plan cache of the ingest; its next probe does.
        assert len(context.plan_cache) == 2
        assert context.plan_cache.invalidations == 0
        after = context.compile(tpq)
        assert after is not before
        assert after.corpus_version == corpus.version
        assert context.plan_cache.invalidations == 1
        assert len(context.plan_cache) == 1  # ``other``'s plan went too
        assert context.compile(tpq) is after


class TestPlanCacheSurvivesFeedback:
    """Nothing a run observes feeds back into a compile: the plan key is
    the request alone, so a steady workload never re-keys (or evicts) plans
    it already holds, and a plan is a function of its query and the corpus.
    """

    QUERIES = [
        QUERY,
        "//article[./title]",
        "//article[./section/paragraph]",
        '//section[./paragraph[.contains("XML")]]',
        "//book[./title]",
        "//article[.//algorithm]",
    ]

    def test_replay_of_a_pool_that_fits_hits_every_probe(self):
        from repro import Engine

        engine = Engine.from_xml(
            LIBRARY_XML, cache=False, plan_cache_size=len(self.QUERIES)
        )
        for _ in range(40):
            for text in self.QUERIES:
                engine.query(text, k=50, algorithm="dpo")
        plan_cache = engine.context.plan_cache
        before = plan_cache.info()
        for text in self.QUERIES:
            engine.query(text, k=50, algorithm="dpo")
        after = plan_cache.info()
        assert after["hits"] - before["hits"] == len(self.QUERIES)
        assert after["misses"] == before["misses"] == len(self.QUERIES)
        assert after["evictions"] == 0

        # A context that served all of the above and a cold one lower the
        # same query to the same plans, at every level of both families.
        def decisions(context):
            compiled = compile_query(context, parse_query(QUERY))
            return [
                ([join.var for join in plan.joins], plan.estimates)
                for level in range(compiled.level_count())
                for plan in (compiled.strict_plan(level),
                             compiled.encoded_plan(level))
            ]

        cold = QueryContext(parse(LIBRARY_XML))
        assert decisions(engine.context) == decisions(cold)


class TestFacadeIntegration:
    def test_query_many_preserves_order_and_matches_sequential(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        queries = [QUERY, "//article[./title]", "//book"]
        batch = engine.query_many(queries, k=5, workers=3)
        sequential = [engine.query(text, k=5) for text in queries]
        assert len(batch) == len(queries)
        for concurrent, reference in zip(batch, sequential):
            assert concurrent.node_ids() == reference.node_ids()

    def test_query_many_single_worker_and_empty(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        assert engine.query_many([]) == []
        results = engine.query_many([QUERY], workers=1)
        assert len(results) == 1

    def test_query_many_rejects_bad_workers(self):
        from repro.errors import FleXPathError

        engine = FleXPath.from_xml(LIBRARY_XML)
        with pytest.raises(FleXPathError):
            engine.query_many([QUERY], workers=0)

    def test_query_many_one_failure_does_not_abort_siblings(self):
        from repro.errors import QueryBatchError, QueryParseError

        engine = FleXPath.from_xml(LIBRARY_XML)
        queries = [QUERY, "//article[", "//article[./title]", "//]["]
        with pytest.raises(QueryBatchError) as info:
            engine.query_many(queries, k=5, workers=3)
        error = info.value
        assert [index for index, _ in error.errors] == [1, 3]
        assert all(
            isinstance(exc, QueryParseError) for _, exc in error.errors
        )
        assert len(error.results) == len(queries)
        assert error.results[1] is None and error.results[3] is None
        reference = engine.query(QUERY, k=5)
        assert error.results[0].node_ids() == reference.node_ids()
        assert error.results[2] is not None

    def test_query_many_failure_policy_sequential_path(self):
        from repro.errors import QueryBatchError

        engine = FleXPath.from_xml(LIBRARY_XML)
        with pytest.raises(QueryBatchError) as info:
            engine.query_many([QUERY, "//article["], k=5, workers=1)
        assert [index for index, _ in info.value.errors] == [1]
        assert info.value.results[0].node_ids()

    def test_query_many_return_exceptions_inline(self):
        from repro.errors import QueryParseError

        engine = FleXPath.from_xml(LIBRARY_XML)
        results = engine.query_many(
            [QUERY, "//article[", "//book"],
            k=5,
            workers=2,
            return_exceptions=True,
        )
        assert len(results) == 3
        assert isinstance(results[1], QueryParseError)
        reference = engine.query(QUERY, k=5)
        assert results[0].node_ids() == reference.node_ids()
        assert results[2] is not None and not isinstance(
            results[2], Exception
        )

    def test_cache_info_reports_all_three_tiers(self):
        engine = FleXPath.from_xml(LIBRARY_XML, result_cache_size=1)
        engine.query(QUERY, k=3)
        engine.query("//article[./title]", k=3)  # evicts with size=1
        info = engine.cache_info()
        assert info["enabled"] is True
        assert info["plan_cache"]["misses"] >= 2
        assert info["result_cache"]["evictions"] == 1
        assert info["result_cache"]["entries"] == 1
        # All three tiers report one schema.
        schema = {
            "entries", "max_entries", "hits", "misses",
            "evictions", "invalidations",
        }
        for tier in ("plan_cache", "eval_cache", "result_cache"):
            assert set(info[tier]) == schema
        assert info["eval_cache"]["entries"] > 0

    def test_result_cache_info_instance_counters(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        engine.query(QUERY, k=3)
        engine.query(QUERY, k=3)
        info = engine.result_cache.info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["entries"] == 1

    def test_warm_queries_hit_the_plan_cache(self):
        engine = FleXPath.from_xml(LIBRARY_XML, cache=False)
        for _ in range(3):
            engine.query(QUERY, k=3)
        info = engine.context.plan_cache.info()
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_every_algorithm_shares_the_compiled_artifact(self):
        engine = FleXPath.from_xml(LIBRARY_XML, cache=False)
        for algorithm in ("dpo", "sso", "hybrid", "naive", "ir-first"):
            engine.query(QUERY, k=3, algorithm=algorithm)
        info = engine.context.plan_cache.info()
        assert info["misses"] == 1
        assert info["hits"] == 4
