"""Property tests: the IR engine agrees with the reference matcher, and an
expression resolved before an ingest answers like a freshly built engine
after it."""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import DiskBackend, InMemoryBackend
from repro.backend.sharded import RoundRobinRouter, ShardedBackend
from repro.collection import Corpus
from repro.ir import (
    And,
    IREngine,
    Not,
    Or,
    Phrase,
    Term,
    Window,
    ftexpr_matches,
    tokenize_and_stem,
)

from repro.xmltree import parse

from tests.properties.strategies import TAGS, WORDS, documents


@st.composite
def ftexprs(draw, depth=0):
    if depth >= 2:
        return Term(draw(st.sampled_from(WORDS)))
    kind = draw(st.sampled_from(("term", "and", "or", "not", "phrase", "window")))
    if kind == "term":
        return Term(draw(st.sampled_from(WORDS)))
    if kind == "phrase":
        words = draw(st.lists(st.sampled_from(WORDS), min_size=2, max_size=3))
        return Phrase(tuple(words))
    if kind == "window":
        words = draw(st.lists(st.sampled_from(WORDS), min_size=2, max_size=3))
        return Window(draw(st.integers(2, 6)), tuple(words))
    if kind == "not":
        return Not(draw(ftexprs(depth=depth + 1)))
    children = tuple(
        draw(ftexprs(depth=depth + 1))
        for _ in range(draw(st.integers(2, 3)))
    )
    return And(children) if kind == "and" else Or(children)


@given(documents(), ftexprs())
@settings(max_examples=60, deadline=None)
def test_engine_satisfies_agrees_with_reference(doc, expr):
    """Index-based satisfaction == scanning the subtree text.

    Exception: the engine intentionally restricts Phrase/Window to a single
    element's direct text, while the reference matcher sees concatenated
    subtree text; engine-true must still imply reference-true.
    """
    engine = IREngine(doc)
    for node in doc.nodes():
        reference = ftexpr_matches(expr, tokenize_and_stem(doc.full_text(node)))
        got = engine.satisfies(node, expr)
        if _positional_free(expr):
            assert got == reference, (node.node_id, expr)


def _positional_free(expr):
    if isinstance(expr, (Phrase, Window)):
        return False
    children = getattr(expr, "children", None)
    if children is not None:
        return all(_positional_free(c) for c in children)
    if isinstance(expr, Not):
        return _positional_free(expr.child)
    return True


@given(documents(), ftexprs())
@settings(max_examples=40, deadline=None)
def test_scores_bounded(doc, expr):
    engine = IREngine(doc)
    for node in doc.nodes():
        assert 0.0 <= engine.score(node, expr) <= 1.0


@given(documents(), ftexprs())
@settings(max_examples=40, deadline=None)
def test_most_specific_are_minimal_and_satisfying(doc, expr):
    engine = IREngine(doc)
    matches = engine.most_specific_matches(expr)
    ids = {m.node.node_id for m in matches}
    for match in matches:
        assert engine.satisfies(match.node, expr)
        for descendant in doc.descendants(match.node):
            assert descendant.node_id not in ids


@given(documents())
@settings(max_examples=40, deadline=None)
def test_contains_monotone_up_the_tree(doc):
    """If a node satisfies an expression without negation, so do all its
    ancestors (the paper's third inference rule, extensionally)."""
    engine = IREngine(doc)
    expr = And((Term("gold"), Term("ring")))
    for node in doc.nodes():
        if engine.satisfies(node, expr):
            for ancestor in doc.ancestors(node):
                assert engine.satisfies(ancestor, expr)


# -- resolved probes survive ingest ---------------------------------------------

#: A term no ``documents()`` text contains: before the ingest below every
#: probe resolves it to "no posting", after it the term has one.
NEW = "zeppelin"


def _new_term_fragment():
    """Introduces ``NEW`` and grows the postings of two existing words."""
    return parse(
        "<root><a>%s gold</a><b><c>ring %s %s</c></b></root>" % (NEW, NEW, NEW)
    )


def _expressions(expr):
    return (
        expr,
        Term(NEW),
        Or((expr, Term(NEW))),
        And((Not(Term(NEW)), expr)),
        Phrase((NEW, "gold")),
    )


def _observe(ir, document, expressions):
    """Everything the four probe doors say about every node."""
    seen = []
    for expr in expressions:
        for node in document.nodes():
            seen.append(ir.satisfies(node, expr))
            seen.append(ir.score(node, expr).hex())  # bit-equal, not approx
        seen.append(ir.count_satisfying(expr))
        seen.extend(ir.count_satisfying(expr, tag) for tag in TAGS)
        seen.append(
            [(m.node.node_id, m.score.hex())
             for m in ir.most_specific_matches(expr)]
        )
    return seen


def _assert_like_fresh(backend, expressions):
    fresh = IREngine(backend.document, virtual_root_id=backend.virtual_root_id)
    assert _observe(backend.ir, backend.document, expressions) == _observe(
        fresh, backend.document, expressions
    )


def _probe_ingest_probe(backend, extra, expressions):
    _assert_like_fresh(backend, expressions)  # resolves every expression
    backend.add_document(extra, name="extra")
    _assert_like_fresh(backend, expressions)
    backend.add_document(_new_term_fragment(), name="new-term")
    _assert_like_fresh(backend, expressions)


@given(st.lists(documents(), min_size=1, max_size=2), documents(), ftexprs())
@settings(max_examples=40, deadline=None)
def test_resolved_probes_survive_ingest_memory(docs, extra, expr):
    backend = InMemoryBackend(Corpus())
    for doc in docs:
        backend.add_document(doc)
    _probe_ingest_probe(backend, extra, _expressions(expr))


@given(st.lists(documents(), min_size=1, max_size=2), documents(), ftexprs())
@settings(max_examples=15, deadline=None)
def test_resolved_probes_survive_ingest_disk(docs, extra, expr):
    """Sealed base + WAL tail, then everything sealed and lazily hydrated."""
    expressions = _expressions(expr)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus")
        backend = DiskBackend.create(path)
        for doc in docs:
            backend.add_document(doc)
        backend.compact()
        backend.close()
        # Sealed postings hydrate on first probe; the ingests land in the
        # WAL tail and grow (or create) hydrated postings.
        backend = DiskBackend.open(path)
        try:
            _probe_ingest_probe(backend, extra, expressions)
            backend.compact()
        finally:
            backend.close()
        backend = DiskBackend.open(path)
        try:
            assert backend.wal_documents == 0
            _assert_like_fresh(backend, expressions)
            backend.add_document(_new_term_fragment(), name="again")
            _assert_like_fresh(backend, expressions)
        finally:
            backend.close()


@given(st.lists(documents(), min_size=2, max_size=3), documents(), ftexprs())
@settings(max_examples=30, deadline=None)
def test_resolved_probes_survive_other_shards_ingest(docs, extra, expr):
    """Global ``idf`` moves under a shard-local engine that did not extend:
    every shard's probes still equal the unsharded corpus' (node 0, the
    virtual root, is shard-local by design and left out)."""
    expressions = _expressions(expr)
    flat = InMemoryBackend(Corpus())
    sharded = ShardedBackend.in_memory(2, router=RoundRobinRouter())

    def observe_both():
        seen = []
        for backend in (flat, sharded):
            ir = backend.ir
            nodes = [backend.node(i) for i in range(1, len(flat.document))]
            seen.append([
                [(ir.satisfies(n, e), ir.score(n, e).hex()) for n in nodes]
                + [ir.count_satisfying(e)]
                + [ir.count_satisfying(e, tag) for tag in TAGS]
                + [[(m.node.node_id, m.score.hex())
                    for m in ir.most_specific_matches(e) if m.node.node_id]]
                for e in expressions
            ])
        return seen

    try:
        for index, doc in enumerate(docs):
            for backend in (flat, sharded):
                backend.add_document(doc, name="doc%d" % index)
        expected, got = observe_both()
        assert got == expected
        # Round robin: each ingest extends one shard's engine only.
        for name, doc in (("extra", extra), ("new-term", _new_term_fragment())):
            for backend in (flat, sharded):
                backend.add_document(doc, name=name)
            expected, got = observe_both()
            assert got == expected
    finally:
        sharded.close()
