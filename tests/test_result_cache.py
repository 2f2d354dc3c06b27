"""The tier-2 ResultCache in front of queries: hits, invalidation, kill switch.

The LRU itself is covered in tests/test_cache.py.
"""

import pytest

from repro import FleXPath, parse, parse_query
from repro.collection import Corpus
from repro.obs import on
from repro.obs.metrics import REGISTRY
from tests.conftest import LIBRARY_XML

QUERY = '//article[./section[./paragraph and .contains("streaming")]]'


pytestmark = pytest.mark.usefixtures("clean_observability")


def _counter(name):
    return REGISTRY.as_dict()["counters"].get(name, 0)


class TestFacade:
    def test_repeat_query_hits(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        first = engine.query(QUERY, k=5)
        second = engine.query(QUERY, k=5)
        assert second is first  # the memoized object comes straight back
        assert _counter("result_cache.misses") == 1
        assert _counter("result_cache.hits") == 1

    def test_key_includes_k_scheme_algorithm(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        engine.query(QUERY, k=5)
        engine.query(QUERY, k=6)
        engine.query(QUERY, k=5, algorithm="dpo")
        engine.query(QUERY, k=5, scheme="combined")
        assert _counter("result_cache.hits") == 0
        assert _counter("result_cache.misses") == 4

    def test_equivalent_query_spellings_share_an_entry(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        text = engine.query(QUERY, k=5)
        parsed = engine.query(parse_query(QUERY), k=5)
        assert parsed is text
        assert _counter("result_cache.hits") == 1

    def test_traced_queries_bypass_the_cache(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        engine.query(QUERY, k=5)
        trace = engine.query(QUERY, k=5, trace=True)
        assert trace.result is not None
        assert _counter("result_cache.hits") == 0

    def test_cache_disabled_recomputes(self):
        engine = FleXPath.from_xml(LIBRARY_XML, cache=False)
        assert engine.result_cache is None
        assert engine.context.eval_cache.enabled is False
        first = engine.query(QUERY, k=5)
        second = engine.query(QUERY, k=5)
        assert second is not first
        assert [a.node_id for a in second.answers] == [
            a.node_id for a in first.answers
        ]
        assert _counter("result_cache.hits") == 0
        assert _counter("result_cache.misses") == 0

    def test_cached_query_end_event_marks_cached(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        ends = []
        on("query_end", ends.append)
        engine.query(QUERY, k=5)
        engine.query(QUERY, k=5)
        assert [payload["cached"] for payload in ends] == [False, True]
        assert ends[0]["result"] is ends[1]["result"]

    def test_cache_info(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        engine.query(QUERY, k=5)
        info = engine.cache_info()
        assert info["enabled"] is True
        assert info["result_cache"]["entries"] == 1
        assert info["eval_cache"]["entries"] > 0


class TestInvalidation:
    def test_the_next_probe_after_add_document_empties_the_cache(self):
        corpus = Corpus()
        corpus.add_text(LIBRARY_XML)
        engine = FleXPath(corpus)
        stale = engine.query(QUERY, k=5)
        engine.query(QUERY, k=3)
        assert len(engine.result_cache) == 2
        corpus.add_text(
            "<article><section><paragraph>more streaming"
            "</paragraph></section></article>"
        )
        # Nothing tells the cache of the ingest: the next probe's version
        # fence drops every entry, the k=3 one it does not ask for too.
        assert len(engine.result_cache) == 2
        assert _counter("result_cache.invalidations") == 0
        fresh = engine.query(QUERY, k=5)
        assert fresh is not stale
        assert len(fresh.answers) == len(stale.answers) + 1
        assert _counter("result_cache.invalidations") == 1
        assert len(engine.result_cache) == 1
        assert engine.query(QUERY, k=5) is fresh

    def test_version_in_key_fences_stale_entries(self):
        corpus = Corpus()
        corpus.add_text(LIBRARY_XML)
        assert corpus.version == 1
        engine = FleXPath(corpus)
        engine.query(QUERY, k=5)
        corpus.add_text("<article/>")
        assert corpus.version == 2
        # Even if an entry survived the clear, the bumped version would
        # miss; this probe must therefore be a miss, not a stale hit.
        engine.query(QUERY, k=5)
        assert _counter("result_cache.hits") == 0
        assert _counter("result_cache.misses") == 2


def _read(engine, nodes):
    """What a caller reads off answer nodes: id, tag and subtree text."""
    # A sharded engine has no unified document; its backend renders text.
    source = engine.document if engine.document is not None else engine.backend
    return [(node.node_id, node.tag, source.full_text(node)) for node in nodes]


class TestLazyAnswerViews:
    """An answer carries its id and builds its node view on first read.
    Answers taken out of the result cache and read only after the engine
    moved on read what a view built at query time read."""

    MORE = (
        "<article><section><paragraph>more streaming"
        "</paragraph></section></article>"
    )

    def _cached(self, engine):
        """A result served by the cache, and its answers read at query time."""
        computed = engine.query(QUERY, k=5)
        reference = _read(engine, [
            engine.backend.node(answer.node_id) for answer in computed.answers
        ])
        assert reference
        cached = engine.query(QUERY, k=5)
        assert cached is computed
        return cached.answers, reference

    def test_after_a_later_ingest(self):
        corpus = Corpus()
        corpus.add_text(LIBRARY_XML)
        engine = FleXPath(corpus)
        answers, reference = self._cached(engine)
        corpus.add_text(self.MORE)
        # The next query drops the cached result; its answers still read.
        assert engine.query(QUERY, k=5).answers is not answers
        assert len(engine.result_cache) == 1
        assert _read(engine, [answer.node for answer in answers]) == reference

    def test_after_compaction(self, tmp_path):
        engine = FleXPath.open(self._disk_corpus(tmp_path))
        try:
            answers, reference = self._cached(engine)
            engine.backend.add_document(parse(self.MORE), name="more")
            engine.backend.compact()
            assert _read(engine, [answer.node for answer in answers]) == reference
        finally:
            engine.backend.close()

    def test_on_two_shards(self):
        from repro.backend.sharded import RoundRobinRouter

        engine = FleXPath.sharded(2, router=RoundRobinRouter())
        try:
            for index in range(3):
                engine.backend.add_document(
                    parse(LIBRARY_XML), name="doc%d" % index
                )
            answers, reference = self._cached(engine)
            assert {node.shard_index for node in (
                engine.backend.node(answer.node_id) for answer in answers
            )} == {0, 1}
            engine.backend.add_document(parse(self.MORE), name="more")
            nodes = [answer.node for answer in answers]
            assert _read(engine, nodes) == reference
            assert [node.local_node.node_id for node in nodes] == [
                engine.backend.node(answer.node_id).local_node.node_id
                for answer in answers
            ]
        finally:
            engine.context.close()

    @staticmethod
    def _disk_corpus(tmp_path):
        from repro.backend.disk import DiskBackend

        path = str(tmp_path / "corpus")
        backend = DiskBackend.create(path)
        backend.add_document(parse(LIBRARY_XML), name="library")
        backend.close()
        return path
