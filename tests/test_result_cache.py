"""The tier-2 ResultCache in front of queries: hits, invalidation, kill switch.

The LRU itself is covered in tests/test_cache.py.
"""

import pytest

from repro import FleXPath, parse_query
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
    def test_add_document_empties_the_cache(self):
        corpus = Corpus()
        corpus.add_text(LIBRARY_XML)
        engine = FleXPath(corpus)
        stale = engine.query(QUERY, k=5)
        assert len(engine.result_cache) == 1
        corpus.add_text(
            "<article><section><paragraph>more streaming"
            "</paragraph></section></article>"
        )
        assert len(engine.result_cache) == 0
        assert _counter("result_cache.invalidations") == 1
        fresh = engine.query(QUERY, k=5)
        assert fresh is not stale
        assert len(fresh.answers) == len(stale.answers) + 1

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
