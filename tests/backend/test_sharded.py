"""ShardedBackend: routing, aggregation, disk shards, observability, hammer.

The scatter-gather *scoring* equivalence lives in
``tests/properties/test_property_sharded.py``; this module covers the
storage plane — document→shard routing, global-id translation, exact
statistics aggregation, the on-disk per-shard layout, the published
gauges/topology — plus the engine-facade seams (traced scatter, a failing
scatter round, concurrent ingest).
"""

import threading

import pytest

from repro import Engine, FleXPath
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
from repro.obs.metrics import REGISTRY
from repro.xmltree import parse

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
        assert backend._doc_shards == [0, 1, 2, 0, 1]

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
        assert backend.shard_of(root) == root.shard_index
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
        for attribute in ("ends", "levels", "parent_ids", "tag_ids"):
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

    def test_exact_matches_unsharded(self):
        sharded = FleXPath(_sharded(3))
        flat = FleXPath(_flat())
        query = "//b[./a]"
        assert [n.node_id for n in sharded.exact(query)] == [
            n.node_id for n in flat.exact(query)
        ]

    def test_traced_query_has_shard_spans(self):
        engine = FleXPath(_sharded(3))
        trace = engine.query(QUERY, k=3, trace=True)
        shard_spans = [
            name for name in trace.spans if name.startswith("shard ")
        ]
        assert len(shard_spans) == 3
        untraced = engine.query(QUERY, k=3)
        traced_result = engine.query(QUERY, k=3)
        assert [a.node_id for a in traced_result.answers] == [
            a.node_id for a in untraced.answers
        ]


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
