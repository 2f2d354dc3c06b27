"""Property: the holistic twig operator is invisible in every result.

The physical-operator layer may pick the twig join or the binary pipeline
per plan, so the two must be interchangeable: a cost model forced to
``"twig"`` and one forced to ``"binary"`` must produce the *same ranked
answer list* — node identity, structural score, keyword score — for every
algorithm, every ranking scheme, sharded and unsharded, with the
evaluation cache on or off.  (Eligibility still gates the forced policy:
plans the twig operator cannot evaluate exactly fall back to binary, which
is itself part of the contract under test.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.sharded import RoundRobinRouter, ShardedBackend
from repro.collection import Corpus
from repro.plans import StaticCostModel
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


def _corpus(docs):
    corpus = Corpus()
    for index, doc in enumerate(docs):
        corpus.add_document(doc, name="doc%d" % index)
    return corpus


def _force_policy(context, policy, cached):
    """Pin the operator choice before the first compile touches the cache."""
    context.cost_model = StaticCostModel(
        context.statistics, operator_policy=policy
    )
    context.eval_cache.enabled = cached
    return context


def _ranked(result):
    return [
        (
            answer.node_id,
            round(answer.score.structural, 9),
            round(answer.score.keyword, 9),
        )
        for answer in result.answers
    ]


def _assert_equivalent(docs, query, k, scheme, cached):
    twig = _force_policy(QueryContext(_corpus(docs)), "twig", cached)
    binary = _force_policy(QueryContext(_corpus(docs)), "binary", cached)
    for strategy in STRATEGIES:
        expected = strategy(binary).top_k(query, k, scheme=scheme)
        got = strategy(twig).top_k(query, k, scheme=scheme)
        assert _ranked(got) == _ranked(expected), strategy.__name__


@given(
    st.lists(documents(), min_size=1, max_size=3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_structure_first_identical(docs, query, k, cached):
    _assert_equivalent(docs, query, k, STRUCTURE_FIRST, cached)


@given(
    st.lists(documents(), min_size=1, max_size=3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_keyword_first_identical(docs, query, k, cached):
    _assert_equivalent(docs, query, k, KEYWORD_FIRST, cached)


@given(
    st.lists(documents(), min_size=1, max_size=3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_combined_identical(docs, query, k, cached):
    _assert_equivalent(docs, query, k, COMBINED, cached)


def _sharded_context(docs, shard_count, policy):
    backend = ShardedBackend.in_memory(shard_count, router=RoundRobinRouter())
    for index, doc in enumerate(docs):
        backend.add_document(doc, name="doc%d" % index)
    context = ShardedQueryContext(backend)
    context.cost_model = StaticCostModel(
        context.statistics, operator_policy=policy
    )
    return context


@given(
    st.lists(documents(), min_size=2, max_size=3),
    st.integers(1, 3),
    tree_patterns(always_tagged=True),
    st.integers(1, 8),
    st.sampled_from(SCHEMES),
)
@settings(max_examples=25, deadline=None)
def test_sharded_identical(docs, shard_count, query, k, scheme):
    twig = _sharded_context(docs, shard_count, "twig")
    binary = _sharded_context(docs, shard_count, "binary")
    try:
        for strategy in STRATEGIES:
            expected = strategy(binary).top_k(query, k, scheme=scheme)
            got = strategy(twig).top_k(query, k, scheme=scheme)
            assert _ranked(got) == _ranked(expected), strategy.__name__
    finally:
        twig.close()
        binary.close()
