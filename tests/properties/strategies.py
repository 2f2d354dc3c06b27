"""Shared hypothesis strategies: random documents and random TPQs."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.query.predicates import Contains
from repro.query.tpq import TPQ
from repro.ir.ftexpr import Term
from repro.xmltree.builder import TreeBuilder

TAGS = ("a", "b", "c", "d")
WORDS = ("gold", "ring", "vintage", "chair", "stamp", "coin")


@st.composite
def documents(draw, max_children=3, max_depth=4, words=WORDS):
    """A random small document over a 4-tag alphabet with texts drawn from
    ``words``."""
    builder = TreeBuilder()

    def emit(depth):
        tag = draw(st.sampled_from(TAGS))
        builder.start(tag)
        if draw(st.booleans()):
            text = draw(
                st.lists(st.sampled_from(words), min_size=1, max_size=4)
            )
            builder.add_text(" ".join(text))
        if depth < max_depth:
            for _ in range(draw(st.integers(0, max_children))):
                emit(depth + 1)
        builder.end()

    builder.start("root")
    for _ in range(draw(st.integers(1, max_children))):
        emit(1)
    builder.end()
    return builder.finish()


#: Characters that historically broke the dump escaping: the attribute
#: separator, the escape character itself, whitespace that must stay
#: line-oriented, and non-ASCII text.
EXOTIC_CHARACTERS = "\x1f\\\t\n\r=ü∑✓ gold"

exotic_text = st.text(alphabet=EXOTIC_CHARACTERS, min_size=0, max_size=12)


@st.composite
def exotic_documents(draw, max_children=3, max_depth=3):
    """A random document whose texts and attributes use hostile characters."""
    builder = TreeBuilder()

    def attributes():
        return draw(
            st.dictionaries(
                st.sampled_from(("k1", "k2", "köy")),
                exotic_text,
                max_size=2,
            )
        )

    def emit(depth):
        builder.start(draw(st.sampled_from(TAGS)), attributes() or None)
        if draw(st.booleans()):
            builder.add_text(draw(exotic_text))
        if depth < max_depth:
            for _ in range(draw(st.integers(0, max_children))):
                emit(depth + 1)
        builder.end()

    builder.start("root", attributes() or None)
    for _ in range(draw(st.integers(1, max_children))):
        emit(1)
    builder.end()
    return builder.finish()


@st.composite
def tree_patterns(draw, max_vars=5, with_contains=True):
    """A random TPQ over the same alphabet; any variable may be a wildcard."""
    count = draw(st.integers(1, max_vars))
    variables = ["$%d" % (i + 1) for i in range(count)]
    edges = {}
    tags = {}
    for index in range(1, count):
        parent = variables[draw(st.integers(0, index - 1))]
        axis = draw(st.sampled_from(("pc", "ad")))
        edges[variables[index]] = (parent, axis)
    for var in variables:
        if draw(st.booleans()):
            tags[var] = draw(st.sampled_from(TAGS))
    contains = []
    if with_contains and draw(st.booleans()):
        var = draw(st.sampled_from(variables))
        word = draw(st.sampled_from(WORDS))
        contains.append(Contains(var, Term(word)))
    distinguished = draw(st.sampled_from(variables))
    return TPQ(variables[0], edges, tags, distinguished, contains=contains)
