"""One invalidation rule: every cache above the backend fences on its version.

Nothing above the backend is told of an ingest.  The plan and result caches
fence at their next probe, each source's evaluation cache when the next
query's scatter starts.  So after an ingest a warm engine answers like a
fresh engine over the same backend, and after one query at the new version
no cache tier holds an entry from the old one.
"""

import pytest

from repro import Engine
from repro.backend.disk import DiskBackend
from repro.backend.memory import InMemoryBackend
from repro.backend.sharded import RoundRobinRouter, ShardedBackend
from repro.collection import Corpus
from repro.engine import ALGORITHMS
from repro.xmltree import parse

DOCS = (
    "<library><article><title>Streaming XML</title>"
    "<section><paragraph>streaming engines</paragraph>"
    "<algorithm>one</algorithm></section></article></library>",
    "<library><article><section><title>survey</title>"
    "<paragraph>XML databases</paragraph></section></article></library>",
    "<library><article><abstract>streaming XML</abstract>"
    "<section><paragraph>nothing here</paragraph></section></article>"
    "</library>",
)
#: Round robin over two shards puts this fourth document on shard 1 only.
LATE = (
    "<library><article><section><paragraph>streaming streaming XML"
    "</paragraph></section></article></library>"
)
QUERY = '//article[./section[./paragraph and .contains("streaming")]]'
OTHER = "//article[./section/algorithm]"


def _memory(tmp_path):
    return InMemoryBackend(Corpus())


def _disk(tmp_path):
    return DiskBackend.create(str(tmp_path / "corpus"))


def _two_shards(tmp_path):
    return ShardedBackend.in_memory(2, router=RoundRobinRouter())


def _two_disk_shards(tmp_path):
    return ShardedBackend.open(
        str(tmp_path / "sharded"), shard_count=2, router=RoundRobinRouter()
    )


@pytest.fixture(params=[_memory, _disk, _two_shards, _two_disk_shards],
                ids=["memory", "disk", "2-shard", "2-shard-disk"])
def backend(request, tmp_path):
    backend = request.param(tmp_path)
    for index, text in enumerate(DOCS):
        backend.add_document(parse(text), name="doc%d" % index)
    yield backend
    close = getattr(backend, "close", None)
    if close is not None:
        close()


@pytest.fixture()
def engines():
    """Engines to close (a sharded one owns a scatter thread pool)."""
    made = []
    yield made
    for engine in made:
        close = getattr(engine.context, "close", None)
        if close is not None:
            close()


def _answers(result):
    return [
        (answer.node_id, repr(answer.score.structural),
         repr(answer.score.keyword))
        for answer in result.answers
    ]


def _outcomes(engine, query):
    """``exact`` first — the first probe after an ingest — then all five."""
    outcomes = {"exact": [node.node_id for node in engine.exact(query)]}
    for algorithm in ALGORITHMS:
        outcomes[algorithm] = _answers(
            engine.query(query, k=10, algorithm=algorithm)
        )
    return outcomes


def _eval_keys(engine):
    return [
        {name: set(tier.data) for name, tier in source.eval_cache._tiers.items()}
        for source in engine.context.sources
    ]


def test_a_warm_engine_answers_like_a_fresh_one(backend, engines):
    warm = Engine(backend)
    engines.append(warm)
    before = _outcomes(warm, QUERY)
    backend.add_document(parse(LATE), name="late")
    fresh = Engine(backend)
    engines.append(fresh)
    after = _outcomes(warm, QUERY)
    assert after == _outcomes(fresh, QUERY)
    assert after != before  # the late document answers the query


def test_one_query_at_the_new_version_leaves_no_old_entry(backend, engines):
    warm = Engine(backend)
    engines.append(warm)
    for algorithm in ALGORITHMS:
        for query in (QUERY, OTHER):
            warm.query(query, k=10, algorithm=algorithm)
    assert len(warm.result_cache) == 2 * len(ALGORITHMS)
    backend.add_document(parse(LATE), name="late")
    fresh = Engine(backend)
    engines.append(fresh)
    for engine in (warm, fresh):
        engine.query(QUERY, k=10, algorithm="hybrid")
    assert len(warm.result_cache) == 1
    assert len(warm.context.plan_cache) == 1
    assert _eval_keys(warm) == _eval_keys(fresh)
    info = warm.cache_info()
    assert info["plan_cache"]["invalidations"] == 1
    assert info["result_cache"]["invalidations"] == 1
    assert info["eval_cache"]["invalidations"] == len(warm.context.sources)
