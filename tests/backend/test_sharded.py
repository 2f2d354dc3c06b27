"""ShardedBackend: routing, aggregation, disk shards, observability, hammer.

The scatter-gather *scoring* equivalence lives in
``tests/properties/test_property_sharded.py``; this module covers the
storage plane — document→shard routing, global-id translation, exact
statistics aggregation, the on-disk per-shard layout, the published
gauges/topology — plus the engine-facade seams (``exact`` against the
reference evaluator, traced scatter, virtual roots, a failing scatter
round, concurrent ingest).
"""

import os
import threading

import pytest

from repro import Engine
from repro.backend.disk import DiskBackend
from repro.backend.memory import InMemoryBackend
from repro.backend.sharded import (
    GlobalNode,
    HashRouter,
    RoundRobinRouter,
    ShardedBackend,
)
from repro.collection import Corpus
from repro.errors import FleXPathError, QueryTimeoutError
from repro.ir.scoring import idf
from repro.obs.metrics import REGISTRY
from repro.plans.executor import PlanExecutor
from repro.xmark import PAPER_Q1, PAPER_Q2, PAPER_Q3, generate_document
from repro.query import parse_query
from repro.xmltree import parse
from repro.xmltree.serialize import to_xml
from tests.spec.datasets import FIGURE1_QUERIES, article_corpus
from tests.spec.evaluate import evaluate

DOCS = (
    "<root><a>gold ring</a><b><c>vintage coin</c></b></root>",
    "<root><a>stamp</a><a>gold stamp</a></root>",
    "<root><b><a>chair</a></b><c>ring chair vintage</c></root>",
    "<root><d>coin coin gold</d><a><b>stamp ring</b></a></root>",
    "<root><c>vintage</c></root>",
)

QUERY = '//a[.contains("gold")]'


def _sharded(count=3, router=None, docs=DOCS):
    backend = ShardedBackend.in_memory(
        count, router=router if router is not None else RoundRobinRouter()
    )
    for index, text in enumerate(docs):
        backend.add_document(parse(text), name="doc%d" % index)
    return backend


def _flat(docs=DOCS):
    corpus = Corpus()
    for index, text in enumerate(docs):
        corpus.add_document(parse(text), name="doc%d" % index)
    return corpus


class TestRouting:
    def test_round_robin_interleaves(self):
        backend = _sharded(3)
        shards = [shard for _, _, shard, _ in backend._global_map]
        assert shards == [0, 1, 2, 0, 1]

    def test_hash_router_is_stable_across_instances(self):
        names = ["doc%d" % index for index in range(20)]
        first = [
            HashRouter().route(name, None, index, 4)
            for index, name in enumerate(names)
        ]
        second = [
            HashRouter().route(name, None, index, 4)
            for index, name in enumerate(names)
        ]
        assert first == second
        assert all(0 <= shard < 4 for shard in first)

    def test_out_of_range_router_is_rejected(self):
        class Bad:
            def route(self, name, document, doc_index, shard_count):
                return shard_count  # one past the end

        backend = ShardedBackend.in_memory(2, router=Bad())
        with pytest.raises(FleXPathError):
            backend.add_document(parse(DOCS[0]))

    def test_needs_at_least_one_shard(self):
        with pytest.raises(FleXPathError):
            ShardedBackend([])
        with pytest.raises(FleXPathError):
            ShardedBackend.in_memory(0)

    def test_shard_of_and_source_of(self):
        backend = _sharded(2)
        root = backend.add_document(parse(DOCS[0]), name="extra")
        shard = backend.shards[root.shard_index]
        assert shard.corpus.source_of(root.local_node) == "extra"
        assert backend.source_of(root) == "extra"


class TestIdTranslation:
    def test_global_ids_match_unsharded_splice_order(self):
        backend = _sharded(3)
        corpus = _flat()
        assert len(backend) == len(corpus.document)
        # Every fragment root translates to the id the unsharded corpus
        # gave the same document's root.
        flat_roots = [start for start, _, _ in corpus.fragments()]
        sharded_roots = [
            entry[0] for entry in sorted(backend._global_map)
        ]
        assert sharded_roots == flat_roots

    def test_translate_round_trips_through_node(self):
        backend = _sharded(3)
        for global_start, global_end, shard_index, _ in backend._global_map:
            for global_id in (global_start, global_end - 1):
                node = backend.node(global_id)
                assert isinstance(node, GlobalNode)
                assert node.node_id == global_id
                assert node.shard_index == shard_index
                back = backend.translate_id(
                    shard_index, node.local_node.node_id
                )
                assert back == global_id

    def test_virtual_roots_translate_to_zero(self):
        backend = _sharded(2)
        for shard_index, shard in enumerate(backend.shards):
            assert backend.translate_id(
                shard_index, shard.virtual_root_id
            ) == 0

    def test_unmapped_ids_raise(self):
        backend = _sharded(2)
        with pytest.raises(FleXPathError):
            backend.node(10**9)
        with pytest.raises(FleXPathError):
            backend.translate_id(0, 10**9)

    def test_no_unified_node_table(self):
        backend = _sharded(2)
        assert backend.document is None
        assert backend.corpus is None
        for attribute in ("ends", "parent_ids", "tag_ids"):
            with pytest.raises(TypeError):
                getattr(backend, attribute)


class TestStatisticsAggregation:
    def test_counts_equal_unsharded(self):
        backend = _sharded(3)
        flat = InMemoryBackend(_flat())
        assert backend.total_elements == flat.total_elements
        for tag in ("a", "b", "c", "d", "root"):
            assert backend.tag_count(tag) == flat.tag_count(tag)
        for parent in ("root", "a", "b"):
            for child in ("a", "b", "c"):
                assert backend.pc_count(parent, child) == flat.pc_count(
                    parent, child
                )
                assert backend.ad_count(parent, child) == flat.ad_count(
                    parent, child
                )

    def test_version_is_monotonic_across_topology(self):
        backend = _sharded(2)
        before = backend.version
        backend.add_document(parse(DOCS[0]))
        assert backend.version > before


class TestDiskShards:
    def test_open_ingest_reopen(self, tmp_path):
        path = str(tmp_path / "corpus")
        backend = ShardedBackend.open(
            path, shard_count=2, router=RoundRobinRouter()
        )
        for index, text in enumerate(DOCS[:4]):
            backend.add_document(parse(text), name="doc%d" % index)
        engine = Engine(backend)
        before = engine.query(QUERY, k=5)
        backend.close()

        reopened = ShardedBackend.open(
            path, shard_count=2, router=RoundRobinRouter()
        )
        try:
            assert reopened.shard_count == 2
            assert reopened.describe()["documents"] == 4
            after = Engine(reopened).query(QUERY, k=5)
            assert [
                (round(a.score.structural, 9), round(a.score.keyword, 9))
                for a in after.answers
            ] == [
                (round(a.score.structural, 9), round(a.score.keyword, 9))
                for a in before.answers
            ]
        finally:
            reopened.close()

    def test_reopen_with_wrong_shard_count_is_an_error(self, tmp_path):
        path = str(tmp_path / "corpus")
        ShardedBackend.open(path, shard_count=2).close()
        with pytest.raises(FleXPathError, match="resharding"):
            ShardedBackend.open(path, shard_count=3)

    def test_engine_reopens_with_the_shard_count_on_disk(self, tmp_path):
        path = str(tmp_path / "corpus")
        engine = Engine.sharded(
            shard_count=2, router=RoundRobinRouter(), path=path
        )
        for index, text in enumerate(DOCS[:4]):
            engine.backend.add_document(parse(text), name="doc%d" % index)
        before = engine.query(QUERY, k=5)
        engine.backend.close()
        reopened = Engine.sharded(path=path)
        try:
            assert reopened.backend.shard_count == 2
            assert reopened.backend.describe()["documents"] == 4
            assert [a.score for a in reopened.query(QUERY, k=5).answers] == [
                a.score for a in before.answers
            ]
        finally:
            reopened.backend.close()
        with pytest.raises(FleXPathError, match="resharding"):
            Engine.sharded(shard_count=3, path=path)

    def test_engine_sharded_refuses_a_disk_corpus(self, tmp_path):
        path = str(tmp_path / "corpus")
        disk = DiskBackend.create(path)
        disk.add_document(parse(DOCS[0]), name="doc0")
        disk.close()
        listing = sorted(os.listdir(path))
        with pytest.raises(FleXPathError, match="single-disk corpus"):
            Engine.sharded(shard_count=2, path=path)
        assert sorted(os.listdir(path)) == listing

    def test_engine_sharded_refuses_a_directory_without_shards(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a corpus")
        with pytest.raises(FleXPathError, match="no shard-\\* directories"):
            Engine.sharded(shard_count=2, path=str(tmp_path))
        assert os.listdir(tmp_path) == ["notes.txt"]

    def test_disk_create_refuses_a_sharded_directory(self, tmp_path):
        path = str(tmp_path / "corpus")
        ShardedBackend.open(path, shard_count=2).close()
        listing = sorted(os.listdir(path))
        with pytest.raises(FleXPathError, match="sharded corpus"):
            DiskBackend.create(path)
        assert sorted(os.listdir(path)) == listing

    def test_engine_open_serves_a_sharded_directory(self, tmp_path):
        path = str(tmp_path / "corpus")
        engine = Engine.sharded(
            shard_count=2, router=RoundRobinRouter(), path=path
        )
        for index, text in enumerate(DOCS[:4]):
            engine.backend.add_document(parse(text), name="doc%d" % index)
        engine.backend.close()
        # Reopened global ids follow (shard, local id), not ingest order.
        reference = Engine.sharded(path=path)
        before = reference.query(QUERY, k=5)
        reference.backend.close()
        listing = sorted(os.listdir(path))
        opened = Engine.open(path)
        try:
            assert isinstance(opened.backend, ShardedBackend)
            assert opened.backend.shard_count == 2
            after = opened.query(QUERY, k=5)
            assert after.node_ids() == before.node_ids()
            assert [a.score for a in after.answers] == [
                a.score for a in before.answers
            ]
        finally:
            opened.backend.close()
        assert sorted(os.listdir(path)) == listing

    def test_a_new_corpus_gets_the_default_shard_count(self, tmp_path):
        engine = Engine.sharded(path=str(tmp_path / "corpus"))
        try:
            assert engine.backend.shard_count == 4
        finally:
            engine.backend.close()

    def test_compact_seals_every_shard_and_keeps_answers(self, tmp_path):
        """Answers over the WAL-replayed corpus equal those over the sealed
        one, ids included (both sides reopen, so both rebuild the global
        ids the same way)."""
        path = str(tmp_path / "corpus")
        backend = ShardedBackend.open(
            path, shard_count=2, router=RoundRobinRouter()
        )
        for index in range(4):
            backend.add_document(
                generate_document(target_bytes=8_000, seed=index + 1),
                name="doc%d" % index,
            )
        backend.close()

        def answers(backend):
            engine = Engine(backend)
            return {
                query: [
                    (a.node_id, repr(a.score.structural), repr(a.score.keyword))
                    for a in engine.query(query, k=10).answers
                ]
                for query in (PAPER_Q1, PAPER_Q2, PAPER_Q3)
            }

        backend = ShardedBackend.open(path)
        try:
            assert [shard.wal_documents for shard in backend.shards] == [2, 2]
            before = answers(backend)
            assert all(before.values())
            assert backend.compact() == [2, 2]
        finally:
            backend.close()
        backend = ShardedBackend.open(path)
        try:
            assert [shard.wal_documents for shard in backend.shards] == [0, 0]
            assert answers(backend) == before
        finally:
            backend.close()

    def test_mixed_shard_kinds(self, tmp_path):
        disk = DiskBackend.create(str(tmp_path / "shard-disk"))
        backend = ShardedBackend(
            [InMemoryBackend(Corpus()), disk], router=RoundRobinRouter()
        )
        try:
            for index, text in enumerate(DOCS):
                backend.add_document(parse(text), name="doc%d" % index)
            topology = backend.shard_topology()
            assert [entry["kind"] for entry in topology] == [
                "InMemoryBackend",
                "DiskBackend",
            ]
            assert "generation" in topology[1]
            result = Engine(backend).query(QUERY, k=5)
            flat = Engine(_flat()).query(QUERY, k=5)
            assert [
                (a.node_id, round(a.score.structural, 9))
                for a in result.answers
            ] == [
                (a.node_id, round(a.score.structural, 9))
                for a in flat.answers
            ]
        finally:
            backend.close()


class TestObservability:
    def setup_method(self):
        REGISTRY.reset()

    def teardown_method(self):
        REGISTRY.reset()

    def test_gauges_published_per_shard(self, tmp_path):
        disk = DiskBackend.create(str(tmp_path / "shard-disk"))
        backend = ShardedBackend(
            [InMemoryBackend(Corpus()), disk], router=RoundRobinRouter()
        )
        try:
            for index, text in enumerate(DOCS[:4]):
                backend.add_document(parse(text), name="doc%d" % index)
            gauges = REGISTRY.as_dict()["gauges"]
            assert gauges["shards.count"] == 2
            assert gauges["shards.documents"] == 4
            assert gauges["shards.shard0.documents"] == 2
            assert gauges["shards.shard1.documents"] == 2
            assert "shards.shard1.generation" in gauges
            assert "shards.shard0.generation" not in gauges
        finally:
            backend.close()

    def test_statusz_reports_topology(self):
        engine = Engine(_sharded(2))
        from repro.obs.http import ObservabilityServer

        status = ObservabilityServer(engine).status()
        assert status["shards"] is not None
        assert [entry["index"] for entry in status["shards"]] == [0, 1]
        assert all(entry["documents"] >= 2 for entry in status["shards"])

    def test_statusz_shards_none_for_unsharded(self):
        engine = Engine(parse(DOCS[0]))
        from repro.obs.http import ObservabilityServer

        assert ObservabilityServer(engine).status()["shards"] is None

    def test_scatter_counters_flow(self):
        engine = Engine(_sharded(3))
        result = engine.query(QUERY, k=2, algorithm="dpo")
        assert result.shard_rounds >= 1
        counters = REGISTRY.as_dict()["counters"]
        assert counters.get("shards.rounds", 0) >= result.shard_rounds


class TestShardEvalCaches:
    """The coordinator holds no evaluation cache: every view of one is a
    sum over the per-source caches."""

    @staticmethod
    def _engine(**kwargs):
        engine = Engine.sharded(2, router=RoundRobinRouter(), **kwargs)
        for index, text in enumerate(DOCS):
            engine.backend.add_document(parse(text), name="doc%d" % index)
        return engine

    def test_cache_info_sums_the_sources(self):
        engine = self._engine()
        assert engine.context.eval_cache is None
        engine.query(QUERY, k=3, algorithm="sso")
        engine.query("//b[./a]", k=3, algorithm="ir-first")
        per_source = [source.eval_cache.info() for source in engine.context.sources]
        assert len(per_source) == 2
        assert all(info["entries"] > 0 for info in per_source)
        assert engine.cache_info()["eval_cache"] == {
            key: sum(info[key] for info in per_source) for key in per_source[0]
        }

    def test_cache_off_disables_every_source(self):
        engine = self._engine(cache=False)
        sources = engine.context.sources
        assert [source.eval_cache.enabled for source in sources] == [False, False]
        engine.query(QUERY, k=3)
        assert engine.cache_info()["eval_cache"]["entries"] == 0

    def test_an_ingest_into_one_shard_clears_every_shards_contains_tier(self):
        """Any shard's ingest moves the corpus-wide idf every shard scores
        with, so the shard that did not grow must drop its memoized
        keyword scores too — at the next query, whose scatter fences
        every source on the coordinator's version."""
        docs = (
            "<root><a>gold coin</a><a>silver</a></root>",
            "<root><a>silver spoon</a></root>",
            "<root><a>bronze gold</a></root>",
        )
        late = "<root><a>gold gold</a></root>"  # round robin: shard 1
        query = '//a[.contains("gold" or "silver")]'

        def build(texts):
            engine = Engine.sharded(2, router=RoundRobinRouter())
            for index, text in enumerate(texts):
                engine.backend.add_document(parse(text), name="doc%d" % index)
            return engine

        def answers(engine, algorithm):
            return [
                (a.node_id, repr(a.score.structural), repr(a.score.keyword))
                for a in engine.query(query, k=10, algorithm=algorithm).answers
            ]

        warm = build(docs)
        answers(warm, "sso")
        contains = warm.context.sources[0].eval_cache._tiers["contains"]
        assert contains.data
        before = idf(warm.backend.ir.index, "gold")
        stale = list(contains.data.values())
        warm.backend.add_document(parse(late), name="doc3")
        assert warm.backend._global_map[-1][2] == 1
        assert idf(warm.backend.ir.index, "gold") != before
        assert contains.data  # nothing is told of the ingest
        answers(warm, "sso")
        assert contains.data
        assert not any(
            table is old for table in contains.data.values() for old in stale
        )
        assert warm.context.sources[0].eval_cache.info()["invalidations"] == 1
        fresh = build(docs + (late,))
        for algorithm in ("sso", "hybrid", "dpo", "ir-first", "naive"):
            assert answers(warm, algorithm) == answers(fresh, algorithm), (
                algorithm
            )

    def test_registry_deltas_are_the_summed_source_deltas(self):
        engine = self._engine()
        engine.query(QUERY, k=3, algorithm="hybrid")  # warm some tables
        engine.result_cache.invalidate()
        sources = engine.context.sources

        def eval_counts():
            return [source.eval_cache.metrics_snapshot() for source in sources]

        before = eval_counts()
        REGISTRY.reset()
        engine.query(QUERY, k=3, algorithm="dpo")
        after = eval_counts()
        counters = REGISTRY.as_dict()["counters"]
        deltas = {
            key: sum(a[key] - b[key] for a, b in zip(after, before))
            for key in after[0]
        }
        assert any(deltas.values())
        assert {
            key: counters.get(key, 0) for key in deltas
        } == deltas


class TestEngineIntegration:
    def test_all_algorithms_match_unsharded(self):
        sharded = Engine.sharded(shard_count=3, router=RoundRobinRouter())
        for index, text in enumerate(DOCS):
            sharded.backend.add_document(parse(text), name="doc%d" % index)
        flat = Engine(_flat())
        for algorithm in ("dpo", "sso", "hybrid", "naive", "ir-first"):
            for scheme in ("structure-first", "keyword-first", "combined"):
                left = sharded.query(
                    QUERY, k=4, algorithm=algorithm, scheme=scheme
                )
                right = flat.query(
                    QUERY, k=4, algorithm=algorithm, scheme=scheme
                )
                assert [
                    (a.node_id, round(a.score.structural, 9),
                     round(a.score.keyword, 9))
                    for a in left.answers
                ] == [
                    (a.node_id, round(a.score.structural, 9),
                     round(a.score.keyword, 9))
                    for a in right.answers
                ], (algorithm, scheme)


    def test_traced_query_has_shard_spans(self, monkeypatch):
        """A traced query scatters like an untraced one: every source plan
        of a two-source round runs on a ``shard-scatter`` thread, each
        shard's spans land in the query trace, and the answers are the
        untraced query's."""
        engine = Engine.sharded(2, router=RoundRobinRouter(), cache=False)
        for seed in (11, 12, 13, 14):
            engine.backend.add_document(
                generate_document(target_bytes=10_000, seed=seed),
                name="doc%d" % seed,
            )
        query = '//item[./description and .contains("gold")]'
        threads = []
        run = PlanExecutor.run

        def recording(self, *args, **kwargs):
            threads.append(threading.current_thread().name)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(PlanExecutor, "run", recording)
        try:
            for algorithm in ("dpo", "sso"):
                plain = engine.query(query, k=50, algorithm=algorithm)
                del threads[:]
                traced = engine.query(
                    query, k=50, algorithm=algorithm, trace=True
                )
                result = traced.result
                assert [(a.node_id, a.score) for a in traced.answers] == [
                    (a.node_id, a.score) for a in plain.answers
                ]
                assert result.shard_rounds >= 1
                assert result.shards_pruned == 0  # both sources ran
                assert len(threads) == result.levels_evaluated
                assert all(name.startswith("shard-scatter") for name in threads)
                for shard in ("shard 0", "shard 1"):
                    assert traced.spans[shard]["calls"] == result.shard_rounds
                assert traced.counter_totals()["ir.satisfies_calls"] > 0
        finally:
            engine.context.close()


EXACT_QUERIES = (
    *FIGURE1_QUERIES.values(), PAPER_Q1, PAPER_Q2, PAPER_Q3,
    "//*", "//*[./title]", '//*[.contains("streaming")]',
)


class TestExactAgainstReference:
    """``Engine.exact`` is level 0 on the twig operator; the §2.1
    reference evaluator, with its own subtree-text ``contains`` oracle,
    must return the same ids in the same order on every backend: memory,
    disk with WAL documents, the same disk corpus sealed by ``compact``,
    and two shards (sharded ≡ unsharded)."""

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        docs = [parse(to_xml(article_corpus(articles=25, seed=11)))] + [
            generate_document(target_bytes=30_000, seed=seed)
            for seed in (4, 5, 6)
        ]
        corpus = Corpus()
        sharded = Engine.sharded(2, router=RoundRobinRouter())
        path = str(tmp_path_factory.mktemp("exact") / "corpus")
        disk = DiskBackend.create(path)
        for index, doc in enumerate(docs):
            for backend in (corpus, sharded.backend, disk):
                backend.add_document(doc, name="doc%d" % index)
        memory = Engine(corpus)
        reference = {
            query: [
                node.node_id for node in evaluate(
                    parse_query(query), corpus.document,
                    virtual_root_id=memory.backend.virtual_root_id,
                )
            ]
            for query in EXACT_QUERIES
        }
        wal = {query: Engine(disk).exact(query) for query in EXACT_QUERIES}
        assert disk.wal_documents == len(docs)
        disk.compact()
        disk.close()
        sealed = DiskBackend.open(path)
        engines = {"memory": memory, "sharded": sharded, "sealed": Engine(sealed)}
        yield reference, engines, wal
        sealed.close()
        sharded.context.close()

    @pytest.mark.parametrize("query", EXACT_QUERIES)
    def test_exact_ids_equal_the_reference(self, setup, query):
        reference, engines, wal = setup
        assert reference[query]
        assert [node.node_id for node in wal[query]] == reference[query]
        for name, engine in engines.items():
            nodes = engine.exact(query)
            assert [node.node_id for node in nodes] == reference[query], name
        assert all(
            isinstance(node, GlobalNode) for node in engines["sharded"].exact(query)
        )


class TestVirtualRoot:
    """No variable binds a corpus' virtual root, sharded or not: each
    shard's root used to answer a wildcard query once per shard."""

    @pytest.fixture(scope="class")
    def engines(self):
        docs = [generate_document(target_bytes=30_000, seed=s) for s in range(1, 5)]
        corpus = Corpus()
        sharded = Engine.sharded(2, router=RoundRobinRouter())
        for index, doc in enumerate(docs):
            corpus.add_document(doc, name="doc%d" % index)
            sharded.backend.add_document(doc, name="doc%d" % index)
        yield Engine(corpus), sharded
        sharded.context.close()

    @pytest.mark.parametrize("algorithm", ["dpo", "hybrid"])
    def test_wildcard_answers_match_unsharded(self, engines, algorithm):
        flat, sharded = engines
        query = '//*[./site and .contains("gold")]'
        expected = flat.query(query, k=5, algorithm=algorithm)
        got = sharded.query(query, k=5, algorithm=algorithm)
        assert expected.answers
        assert 0 not in expected.node_ids()
        assert [(a.node_id, a.score) for a in got.answers] == [
            (a.node_id, a.score) for a in expected.answers
        ]

    def test_root_tag_matches_no_element(self, engines):
        for engine in engines:
            assert engine.query("//collection[./site]", k=5).answers == []
            assert engine.exact("//collection[./site]") == []
            assert engine.exact("//*[./site]") == []
            assert len(engine.exact("//*/item")) == len(engine.exact("//item"))


class TestScatterRound:
    def test_failing_round_waits_for_every_shard(self, monkeypatch):
        """An error leaves ``top_k`` only once no shard is running a plan.

        ``Session.query`` drops the corpus read lock as the exception
        passes, so a shard still executing then would race an ingest.
        """
        engine = Engine(_sharded(2), cache=False)
        failing, slow = engine.context.sources
        slow_started = threading.Event()
        release = threading.Event()
        slow_returned = threading.Event()
        run_slow = slow.executor.run

        def fail(plan, **kwargs):
            assert slow_started.wait(timeout=5)
            raise QueryTimeoutError("shard 0 ran out of time")

        def block(plan, **kwargs):
            slow_started.set()
            assert release.wait(timeout=5)
            try:
                return run_slow(plan, **kwargs)
            finally:
                slow_returned.set()

        monkeypatch.setattr(failing.executor, "run", fail)
        monkeypatch.setattr(slow.executor, "run", block)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            with pytest.raises(QueryTimeoutError):
                engine.query(QUERY, k=3, algorithm="dpo")
            assert slow_returned.is_set()
        finally:
            release.set()
            timer.join(timeout=5)
            engine.context.close()


class TestShardHammer:
    def test_queries_interleaved_with_routed_ingest(self):
        engine = Engine.sharded(shard_count=3, router=RoundRobinRouter())
        for index, text in enumerate(DOCS):
            engine.backend.add_document(parse(text), name="doc%d" % index)
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    result = engine.query(QUERY, k=3)
                    assert len(result.answers) <= 3
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for round_index in range(8):
                engine.backend.add_document(
                    parse("<root><a>gold ingest %d</a></root>" % round_index),
                    name="ingest%d" % round_index,
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        # The appended documents are queryable once ingest returns: the
        # eight strict matches outrank every relaxed filler answer.
        final = engine.query('//a[.contains("ingest")]', k=20)
        assert len(final.answers) >= 8
        assert all(
            "ingest" in engine.backend.full_text(answer.node)
            for answer in final.answers[:8]
        )
