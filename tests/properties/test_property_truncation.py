"""Property: the pipeline's K-best answer records are the top K of all.

With a ``k``, the binary pipeline (SSO and Hybrid modes) builds answer
records for the K best distinct answers only, in ``rank_answers`` order.
That must be exactly the first K of ranking every answer an unpruned,
untruncated run of the same plan returns — ids, scores and order, ties
at the K-th place included.  The documents repeat identical siblings, so
answers tie on score and the cut falls inside a tie.

Across shards the merge stays exact because a shard's local-to-global id
map is increasing: its K best under local ids are its K best under
global ids.  That is pinned here too, on memory shards and on disk
shards before and after a reopen.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.backend.sharded import RoundRobinRouter, ShardedBackend
from repro.collection import Corpus
from repro.plans import HYBRID_MODE, SSO_MODE
from repro.rank import COMBINED, KEYWORD_FIRST, STRUCTURE_FIRST, rank_answers
from repro.topk import QueryContext
from repro.xmltree import parse
from repro.xmltree.builder import TreeBuilder

from tests.properties.strategies import TAGS, WORDS, tree_patterns

SCHEMES = (STRUCTURE_FIRST, KEYWORD_FIRST, COMBINED)
KS = (1, 3, 10)


def _subtrees(depth=3):
    """A small ``(tag, words, children)`` spec to repeat as siblings."""
    words = st.lists(st.sampled_from(WORDS), max_size=3)
    if depth == 0:
        return st.tuples(st.sampled_from(TAGS), words, st.just(()))
    return st.tuples(
        st.sampled_from(TAGS),
        words,
        st.lists(_subtrees(depth - 1), max_size=2).map(tuple),
    )


@st.composite
def tied_documents(draw):
    """Random subtrees, each repeated as identical siblings under the root."""
    builder = TreeBuilder()

    def emit(spec):
        tag, words, children = spec
        builder.start(tag)
        if words:
            builder.add_text(" ".join(words))
        for child in children:
            emit(child)
        builder.end()

    builder.start("root")
    for spec in draw(st.lists(_subtrees(), min_size=1, max_size=3)):
        for _ in range(draw(st.integers(1, 6))):
            emit(spec)
    builder.end()
    return builder.finish()


def _ranked(answers):
    return [
        (answer.node_id, answer.score, answer.relaxation_level,
         answer.satisfied)
        for answer in answers
    ]


@given(tied_documents(), tree_patterns(), st.data())
@settings(max_examples=40, deadline=None)
def test_k_best_records_are_the_first_k_of_all(doc, query, data):
    context = QueryContext(doc)
    compiled = context.compile(query)
    plan = compiled.encoded_plan(
        data.draw(st.integers(0, len(compiled.schedule)), label="level")
    )
    executor = context.executor
    for mode in (SSO_MODE, HYBRID_MODE):
        for scheme in SCHEMES:
            everything = executor.run(plan, scheme=scheme, mode=mode).answers
            for k in KS:
                got = executor.run(plan, k=k, scheme=scheme, mode=mode)
                assert len(got.answers) == min(k, len(everything))
                assert _ranked(rank_answers(got.answers, scheme)) == _ranked(
                    rank_answers(everything, scheme, k)
                ), (mode, scheme, k)


def _engines(docs, shard_count):
    corpus = Corpus()
    sharded = Engine.sharded(shard_count, router=RoundRobinRouter(),
                             cache=False)
    for index, doc in enumerate(docs):
        corpus.add_document(doc, name="doc%d" % index)
        sharded.backend.add_document(doc, name="doc%d" % index)
    return Engine(corpus, cache=False), sharded


@given(
    st.lists(tied_documents(), min_size=2, max_size=4),
    st.sampled_from((2, 3)),
    tree_patterns(),
)
@settings(max_examples=20, deadline=None)
def test_sharded_top_k_equals_unsharded(docs, shard_count, query):
    flat, sharded = _engines(docs, shard_count)
    try:
        for algorithm in ("sso", "hybrid"):
            for scheme in SCHEMES:
                for k in KS:
                    expected = flat.query(query, k=k, scheme=scheme,
                                          algorithm=algorithm)
                    got = sharded.query(query, k=k, scheme=scheme,
                                        algorithm=algorithm)
                    assert _ranked(got.answers) == _ranked(
                        expected.answers
                    ), (algorithm, scheme, k)
    finally:
        sharded.backend.close()


def _assert_increasing_per_shard(backend):
    translated = 0
    for index, shard in enumerate(backend.shards):
        local_ids = sorted(
            node_id
            for start, end, _name in shard.corpus.fragments()
            for node_id in range(start, end)
            if node_id != shard.virtual_root_id
        )
        global_ids = [backend.translate_id(index, node_id)
                      for node_id in local_ids]
        assert all(a < b for a, b in zip(global_ids, global_ids[1:]))
        translated += len(global_ids)
    assert translated > 0


def _documents(count):
    return [
        "<r>%s</r>" % ("<a><b>gold</b></a>" * (index % 3 + 1))
        for index in range(count)
    ]


@pytest.mark.parametrize("shard_count", [2, 3])
def test_translate_id_increases_within_each_memory_shard(shard_count):
    backend = ShardedBackend.in_memory(shard_count, router=RoundRobinRouter())
    for index, text in enumerate(_documents(7)):
        backend.add_document(parse(text), name="doc%d" % index)
    _assert_increasing_per_shard(backend)


def test_translate_id_increases_within_each_shard_across_a_reopen():
    with tempfile.TemporaryDirectory() as path:
        backend = ShardedBackend.open(path, shard_count=2,
                                      router=RoundRobinRouter())
        for index, text in enumerate(_documents(5)):
            backend.add_document(parse(text), name="doc%d" % index)
        _assert_increasing_per_shard(backend)
        backend.close()
        reopened = ShardedBackend.open(path)
        try:
            _assert_increasing_per_shard(reopened)
            assert sum(
                len(list(shard.corpus.fragments()))
                for shard in reopened.shards
            ) == 5
        finally:
            reopened.close()
