"""Property: sharded scatter-gather top-K is identical to unsharded.

The tentpole invariant of the sharded backend (DESIGN §14): the same
ingest sequence routed across N shards must produce the *same ranked
answer list* — node identity, structural score, keyword score — as one
unsharded corpus, for every algorithm and every ranking scheme.  The
early-termination merge may skip shard rounds, but never an answer.

Queries are drawn with every variable tagged: a wildcard variable can
bind the corpus virtual root, whose subtree is shard-local under
sharding but corpus-wide without (the one documented non-equivalence,
see ``repro.sharding``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.sharded import RoundRobinRouter, ShardedBackend
from repro.collection import Corpus
from repro.rank import COMBINED, KEYWORD_FIRST, STRUCTURE_FIRST
from repro.sharding import ShardedQueryContext
from repro.topk import (
    DPO,
    SSO,
    Hybrid,
    IRFirstDPO,
    NaiveRewriting,
    QueryContext,
)

from tests.properties.strategies import documents, tree_patterns

STRATEGIES = (DPO, SSO, Hybrid, NaiveRewriting, IRFirstDPO)
SCHEMES = (STRUCTURE_FIRST, KEYWORD_FIRST, COMBINED)


def _build_pair(docs, shard_count):
    """The same ingest sequence as one corpus and as N shards."""
    corpus = Corpus()
    for index, doc in enumerate(docs):
        corpus.add_document(doc, name="doc%d" % index)
    flat = QueryContext(corpus)
    backend = ShardedBackend.in_memory(shard_count, router=RoundRobinRouter())
    for index, doc in enumerate(docs):
        backend.add_document(doc, name="doc%d" % index)
    return flat, ShardedQueryContext(backend)


def _ranked(result):
    return [
        (
            answer.node_id,
            round(answer.score.structural, 9),
            round(answer.score.keyword, 9),
        )
        for answer in result.answers
    ]


def _assert_equivalent(docs, shard_count, query, k, scheme):
    flat, sharded = _build_pair(docs, shard_count)
    try:
        for strategy in STRATEGIES:
            expected = strategy(flat).top_k(query, k, scheme=scheme)
            got = strategy(sharded).top_k(query, k, scheme=scheme)
            assert _ranked(got) == _ranked(expected), strategy.__name__
    finally:
        sharded.close()


@given(
    st.lists(documents(), min_size=2, max_size=4),
    st.integers(1, 3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
)
@settings(max_examples=25, deadline=None)
def test_structure_first_identical(docs, shard_count, query, k):
    _assert_equivalent(docs, shard_count, query, k, STRUCTURE_FIRST)


@given(
    st.lists(documents(), min_size=2, max_size=4),
    st.integers(1, 3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
)
@settings(max_examples=25, deadline=None)
def test_keyword_first_identical(docs, shard_count, query, k):
    _assert_equivalent(docs, shard_count, query, k, KEYWORD_FIRST)


@given(
    st.lists(documents(), min_size=2, max_size=4),
    st.integers(1, 3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
)
@settings(max_examples=25, deadline=None)
def test_combined_identical(docs, shard_count, query, k):
    _assert_equivalent(docs, shard_count, query, k, COMBINED)


@given(
    st.lists(documents(), min_size=3, max_size=5),
    tree_patterns(always_tagged=True),
)
@settings(max_examples=25, deadline=None)
def test_pruned_rounds_never_drop_answers(docs, query):
    """Small k maximizes pruning; answers must still match unsharded."""
    flat, sharded = _build_pair(docs, 3)
    try:
        expected = DPO(flat).top_k(query, 2, scheme=KEYWORD_FIRST)
        got = DPO(sharded).top_k(query, 2, scheme=KEYWORD_FIRST)
        assert _ranked(got) == _ranked(expected)
        assert got.shard_rounds >= 1
        assert got.shards_pruned >= 0  # counter present and non-negative
    finally:
        sharded.close()


@given(
    st.lists(documents(), min_size=1, max_size=4),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
)
@settings(max_examples=25, deadline=None)
def test_one_shard_is_the_plain_loop(docs, query, k):
    """One source is one source, whichever context lists it.

    A 1-shard coordinator and a plain context run the *same* loop, so they
    agree not only on the ranked answers but on the work: plans executed,
    relaxations used, restarts — and a plain context coordinates nothing.
    """
    flat, sharded = _build_pair(docs, 1)
    for strategy in STRATEGIES:
        for scheme in SCHEMES:
            expected = strategy(flat).top_k(query, k, scheme=scheme)
            got = strategy(sharded).top_k(query, k, scheme=scheme)
            label = (strategy.__name__, scheme.name)
            assert _ranked(got) == _ranked(expected), label
            assert (
                got.levels_evaluated, got.relaxations_used, got.restarts
            ) == (
                expected.levels_evaluated,
                expected.relaxations_used,
                expected.restarts,
            ), label
            assert expected.shard_rounds == expected.shards_pruned == 0
