"""Regression tests for very deep documents.

The tree walks in the builder, parser, serializer, and collection layer
are iterative (explicit stacks), so documents far deeper than Python's
default recursion limit (1000) must build, serialize, parse, persist and
splice without blowing the stack. Depth 5000 is the regression bar.
"""

import sys

import pytest

from repro.collection import Corpus
from repro.xmltree import dump_document, load_document, parse
from repro.xmltree.builder import TreeBuilder, build_document, element
from repro.xmltree.serialize import to_xml

DEPTH = 5000


def _deep_document(depth=DEPTH):
    builder = TreeBuilder()
    builder.start("root")
    for _ in range(depth):
        builder.start("n")
    builder.add_text("bottom")
    for _ in range(depth):
        builder.end("n")
    builder.end("root")
    return builder.finish()


@pytest.fixture(scope="module")
def deep():
    return _deep_document()


def test_depth_exceeds_recursion_limit(deep):
    assert DEPTH > sys.getrecursionlimit()
    assert deep.stats_summary()["depth"] == DEPTH
    assert len(deep) == DEPTH + 1


def test_build_document_literals_handle_depth():
    literal = element("n", text="bottom")
    for _ in range(DEPTH):
        literal = element("n", literal)
    doc = build_document(literal)
    assert doc.stats_summary()["depth"] == DEPTH


def test_serialize_parse_round_trip(deep):
    xml = to_xml(deep, indent="")
    parsed = parse(xml)
    assert parsed.stats_summary() == deep.stats_summary()
    assert parsed.node(len(parsed) - 1).text == "bottom"


@pytest.mark.parametrize("rounds", [1, 2])
def test_dump_round_trip(deep, tmp_path, rounds):
    path = str(tmp_path / "deep.fxd")
    loaded = deep
    for _ in range(rounds):
        dump_document(loaded, path)
        loaded = load_document(path)
    assert loaded.stats_summary() == deep.stats_summary()
    assert loaded.node(DEPTH).level == DEPTH


def test_corpus_splice(deep):
    corpus = Corpus()
    node = corpus.add_document(deep, name="deep")
    assert node.tag == "root"
    combined = corpus.document
    assert combined.stats_summary()["depth"] == DEPTH + 1
    deepest = combined.node(len(combined) - 1)
    assert deepest.text == "bottom"
    assert corpus.source_of(deepest) == "deep"
    # The iterative ancestor walk reaches the virtual root.
    assert combined.path_to_root(deepest)[-1] == "collection"
