"""Concurrency: the RWLock, the thread hammer, strategy shareability."""

import threading
import time

import pytest

from repro import FleXPath, RWLock
from repro.collection import Corpus
from repro.obs.events import HUB
from repro.obs.metrics import REGISTRY
from repro.query.parser import parse_query
from repro.topk.base import QueryContext
from repro.topk.dpo import DPO
from tests.conftest import LIBRARY_XML

ALGORITHMS = ("dpo", "sso", "hybrid", "naive", "ir-first")

QUERIES = (
    '//article[./section[./paragraph and .contains("streaming")]]',
    "//article[./title]",
    "//book[./chapter]",
    "//article[.//paragraph]",
)

EXTRA_DOC = (
    "<article><title>appended</title><section>"
    "<paragraph>streaming queries over appended data</paragraph>"
    "</section></article>"
)


@pytest.fixture(autouse=True)
def clean_observability():
    REGISTRY.reset()
    HUB.clear()
    yield
    REGISTRY.reset()
    HUB.clear()


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # both threads hold the read side at once

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert lock.readers == 0

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        writer_in = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()
                time.sleep(0.05)
                order.append("write")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read_locked():
                order.append("read")

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert order == ["write", "read"]
        assert not lock.writing

    def test_writer_preference_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        write_acquired = threading.Event()
        read_acquired = threading.Event()

        writer = threading.Thread(
            target=lambda: (lock.acquire_write(), write_acquired.set())
        )
        writer.start()
        time.sleep(0.05)  # let the writer register as waiting

        reader = threading.Thread(
            target=lambda: (lock.acquire_read(), read_acquired.set())
        )
        reader.start()
        time.sleep(0.05)
        # The waiting writer keeps the new reader out.
        assert not read_acquired.is_set()
        assert not write_acquired.is_set()

        lock.release_read()
        writer.join(timeout=5)
        assert write_acquired.is_set()
        assert not read_acquired.is_set()
        lock.release_write()
        reader.join(timeout=5)
        assert read_acquired.is_set()
        lock.release_read()

    def test_repr(self):
        assert "RWLock" in repr(RWLock())


class TestThreadHammer:
    def test_mixed_queries_interleaved_with_ingest(self):
        corpus = Corpus()
        corpus.add_text(LIBRARY_XML)
        engine = FleXPath.from_corpus(corpus)

        query_ends = []
        HUB.on("query_end", query_ends.append)

        errors = []
        issued = [0] * 6
        start = threading.Barrier(7, timeout=10)

        def worker(slot):
            try:
                start.wait()
                for round_index in range(6):
                    text = QUERIES[(slot + round_index) % len(QUERIES)]
                    algorithm = ALGORITHMS[(slot + round_index) % len(ALGORITHMS)]
                    result = engine.query(text, k=5, algorithm=algorithm)
                    assert result.answers is not None
                    # Regression: len/repr take the cache lock, so probing
                    # them mid-put/mid-invalidate reads a consistent size.
                    size = len(engine.result_cache)
                    assert 0 <= size <= engine.result_cache.max_entries
                    assert "ResultCache(" in repr(engine.result_cache)
                    issued[slot] += 1
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def ingester():
            try:
                start.wait()
                for _ in range(3):
                    corpus.add_text(EXTRA_DOC)
                    time.sleep(0.01)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(6)]
        threads.append(threading.Thread(target=ingester))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

        assert errors == []
        # Exactly one query_end per issued query — cached or not.
        assert len(query_ends) == sum(issued) == 36
        HUB.off("query_end", query_ends.append)

        # Cached answers must equal a cache-free engine's over the same
        # (final) corpus, per query and per algorithm.
        uncached = FleXPath.from_corpus(corpus, cache=False)
        for text in QUERIES:
            for algorithm in ALGORITHMS:
                hot = engine.query(text, k=5, algorithm=algorithm)
                cold = uncached.query(text, k=5, algorithm=algorithm)
                assert hot.node_ids() == cold.node_ids()

    def test_query_many_interleaved_with_ingest(self):
        corpus = Corpus()
        corpus.add_text(LIBRARY_XML)
        engine = FleXPath.from_corpus(corpus)
        batch = [QUERIES[index % len(QUERIES)] for index in range(12)]

        stop = threading.Event()

        def ingester():
            while not stop.is_set():
                corpus.add_text(EXTRA_DOC)
                time.sleep(0.005)

        thread = threading.Thread(target=ingester)
        thread.start()
        try:
            results = engine.query_many(batch, k=5, workers=4)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert len(results) == len(batch)
        assert all(result.answers is not None for result in results)


class TestStrategySharing:
    def test_one_strategy_instance_across_threads(self):
        context = QueryContext(FleXPath.from_xml(LIBRARY_XML).document)
        strategy = DPO(context)
        tpq = parse_query(QUERIES[0])
        reference = strategy.top_k(tpq, 5)

        results = [None] * 8
        errors = []

        def run(slot):
            try:
                results[slot] = strategy.top_k(tpq, 5)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        for result in results:
            assert result is not None
            assert result.node_ids() == reference.node_ids()
            assert result.relaxations_used == reference.relaxations_used

    def test_facade_strategies_hold_no_per_query_state(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        for strategy in engine.algorithms.values():
            state = {
                name: value
                for name, value in vars(strategy).items()
                if not name.startswith("_context")
            }
            assert state == {}, (
                "%s carries per-query state %r" % (strategy.name, state)
            )
