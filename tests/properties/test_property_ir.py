"""Property tests: the IR engine agrees with the reference matcher, and an
expression resolved before an ingest answers like a freshly built engine
after it."""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import InMemoryBackend
from repro.backend.disk import DiskBackend
from repro.backend.sharded import RoundRobinRouter, ShardedBackend
from repro.collection import Corpus
from repro.ir import (
    STOP_WORDS,
    And,
    IREngine,
    Not,
    Or,
    Phrase,
    Term,
    Window,
    ftexpr_matches,
    stem,
    tokenize,
    tokenize_and_stem,
)
from repro.ir.index import InvertedIndex

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
        Window(3, ("ring", NEW)),
        Or((Term("the"), expr)),  # a stop word: in no posting, weighs nothing
        Phrase(("the", "ring")),
    )


def _agreeing(ir, expr, node, found):
    """``satisfies`` and ``score`` of one node, asserting that ``found``
    (what ``contains_scores`` said of it) agrees: ``None`` exactly where
    the node does not satisfy, else the very float ``score`` returns."""
    satisfied = ir.satisfies(node, expr)
    score = ir.score(node, expr).hex()  # bit-equal, not approx
    assert (found is not None) == satisfied, (node.start, expr)
    assert found is None or found.hex() == score, (node.start, expr)
    return satisfied, score


def _observe(ir, document, expressions):
    """Everything the five probe doors say about every node."""
    seen = []
    for expr in expressions:
        scores = ir.contains_scores(expr, range(len(document)))
        for node in document.nodes():
            seen.extend(_agreeing(ir, expr, node, scores[node.node_id]))
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
        tables = {}

        def door(engine, e):
            # Asked once per engine and expression, for all of its ids.
            if (engine, e) not in tables:
                tables[engine, e] = engine.contains_scores(
                    e, range(len(engine.document))
                )
            return tables[engine, e]

        seen = []
        for backend in (flat, sharded):
            ir = backend.ir
            # Point queries run where the plans run: on the engine of the
            # shard holding the node, against its shard-local view.
            probes = []
            for node_id in range(1, len(flat.document)):
                node = backend.node(node_id)
                if backend is sharded:
                    engine = sharded.shards[node.shard_index].ir
                    node = node.local_node
                else:
                    engine = ir
                probes.append((engine, node))
            seen.append([
                [_agreeing(engine, e, n, door(engine, e)[n.start])
                 for engine, n in probes]
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


# -- one index build equals an extended one -------------------------------------

#: Texts with capital sigmas (lower-cased by position in a whole string,
#: per character by the tokenizer) and mixed-case stop words.
POSTING_WORDS = WORDS + ("The", "AND", "oF", "Gold", "ΟΔΟΣ", "ΣΑΣ", "σας", "Rings")


def _reference_postings(document):
    """Postings and text-element count from a plain per-node loop."""
    occurrences = {}  # term -> {node id: positions}
    text_elements = 0
    for node_id, text in enumerate(document.store.texts):
        tokens = tokenize_and_stem(text)
        assert tokens == [
            stem(word) for word in tokenize(text) if word not in STOP_WORDS
        ]
        text_elements += bool(tokens)
        for position, term in enumerate(tokens):
            occurrences.setdefault(term, {}).setdefault(node_id, []).append(
                position
            )
    postings = {}
    for term, by_node in occurrences.items():
        counts = [0]
        for positions in by_node.values():
            counts.append(counts[-1] + len(positions))
        postings[term] = (
            list(by_node), [tuple(p) for p in by_node.values()], counts
        )
    return postings, text_elements


def _postings_of(index, terms):
    """Every posting of ``index``, probed through the lookup seam."""
    assert index.vocabulary_size == len(terms)
    found = {}
    for term in terms:
        posting = index.posting(term)
        found[term] = (
            list(posting.node_ids),
            list(posting.position_lists),
            list(posting.count_prefix),
        )
    return found, index.text_element_count


@given(st.lists(documents(words=POSTING_WORDS), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_extended_index_equals_one_build_and_reference(docs):
    backend = InMemoryBackend(Corpus())
    extended = backend.ir.index  # built on the empty corpus, then extended
    for doc in docs:
        backend.add_document(doc)
    document = backend.document
    reference = _reference_postings(document)
    assert _postings_of(extended, reference[0]) == reference
    assert _postings_of(InvertedIndex(document), reference[0]) == reference


@given(
    st.lists(documents(words=POSTING_WORDS), min_size=1, max_size=2),
    documents(words=POSTING_WORDS),
)
@settings(max_examples=15, deadline=None)
def test_disk_index_grows_sealed_terms_like_one_build(docs, extra):
    """A sealed segment, then a WAL tail that grows every sealed term (at
    least ``gold``) and adds a new one, live and replayed."""
    sealed = [parse("<root><a>Gold ring</a></root>")] + docs
    tail = parse(
        "<root><a>%s %s</a><b>the %s</b></root>"
        % (NEW, " ".join(POSTING_WORDS), NEW)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus")
        backend = DiskBackend.create(path)
        for doc in sealed:
            backend.add_document(doc)
        backend.compact()
        backend.close()
        backend = DiskBackend.open(path)
        try:
            backend.add_document(extra)
            backend.add_document(tail)
            reference = _reference_postings(backend.document)
            assert _postings_of(backend.ir.index, reference[0]) == reference
        finally:
            backend.close()
        backend = DiskBackend.open(path)  # the tail again, from the WAL
        try:
            assert backend.wal_documents == 2
            assert _postings_of(backend.ir.index, reference[0]) == reference
        finally:
            backend.close()
