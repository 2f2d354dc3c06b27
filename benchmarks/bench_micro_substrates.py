"""Micro-benchmarks for the substrates: parsing, indexing, statistics,
structural joins, IR evaluation.

Not a paper figure — these bound the fixed costs the figure benchmarks
deliberately exclude (the paper likewise reports query time, not load
time).
"""

import os

import pytest

from benchmarks.harness import SIZES, document_for
from repro.ir import IREngine, InvertedIndex, parse_ftexpr
from repro.plans import structural_join_ids
from repro.backend.stats import DocumentStatistics
from repro.xmark import generate_document
from repro.xmltree import dump_document, load_document, parse, to_xml

#: Overridable so CI smoke runs can use a small document.
SIZE = os.environ.get("FLEXPATH_BENCH_SIZE", "10MB")


@pytest.fixture(scope="module")
def document():
    return document_for(SIZE, seed=42)


@pytest.fixture(scope="module")
def xml_text(document):
    return to_xml(document)


def test_micro_generate(benchmark):
    doc = benchmark.pedantic(
        generate_document,
        kwargs={"target_bytes": SIZES[SIZE], "seed": 7},
        rounds=3,
        warmup_rounds=1,
    )
    benchmark.extra_info["nodes"] = len(doc)


def test_micro_parse(benchmark, xml_text):
    doc = benchmark.pedantic(parse, args=(xml_text,), rounds=3, warmup_rounds=1)
    benchmark.extra_info["nodes"] = len(doc)


def test_micro_inverted_index(benchmark, document):
    index = benchmark.pedantic(
        InvertedIndex, args=(document,), rounds=3, warmup_rounds=1
    )
    benchmark.extra_info["vocabulary"] = index.vocabulary_size


def test_micro_statistics(benchmark, document):
    benchmark.pedantic(
        DocumentStatistics, args=(document,), rounds=3, warmup_rounds=1
    )


def test_micro_structural_join(benchmark, document):
    store = document.store
    items = store.node_ids_with_tag("item")
    texts = store.node_ids_with_tag("text")

    pairs = benchmark(
        structural_join_ids, store.ends, store.levels, items, texts, "ad"
    )
    benchmark.extra_info["pairs"] = len(pairs)


def test_micro_dump_v2(benchmark, document, tmp_path):
    path = str(tmp_path / "doc.fxd")
    benchmark.pedantic(
        dump_document, args=(document, path), rounds=3, warmup_rounds=1
    )
    benchmark.extra_info["bytes"] = os.path.getsize(path)


def test_micro_load_v2(benchmark, document, tmp_path):
    path = str(tmp_path / "doc.fxd")
    dump_document(document, path)
    loaded = benchmark.pedantic(
        load_document, args=(path,), rounds=3, warmup_rounds=1
    )
    benchmark.extra_info["nodes"] = len(loaded)
    benchmark.extra_info["footprint_bytes"] = loaded.store.footprint_bytes()


def test_micro_corpus_append(benchmark, document):
    """The splice itself: O(new nodes) column extends, no re-parse."""
    from repro.collection import Corpus

    def run():
        corpus = Corpus()
        corpus.add_document(document)
        return corpus

    corpus = benchmark.pedantic(run, rounds=3, warmup_rounds=1)
    benchmark.extra_info["nodes"] = len(corpus.document)


def test_micro_ir_most_specific(benchmark, document):
    engine = IREngine(document)
    expr = parse_ftexpr('"vintage" or "treasure"')
    engine.most_specific_matches(expr)  # warm

    def run():
        engine._most_specific_cache.clear()
        return engine.most_specific_matches(expr)

    matches = benchmark(run)
    benchmark.extra_info["matches"] = len(matches)


def test_micro_ir_probe(benchmark, document):
    """The point probes join processing issues: 10 k ``satisfies`` + ``score``
    of one three-term expression over a tag pool, expression already resolved."""
    engine = IREngine(document)
    expr = parse_ftexpr('("vintage" or "treasure") and "gold"')
    pool = document.nodes_with_tag("text")
    nodes = [pool[i % len(pool)] for i in range(5_000)]

    def run():
        satisfied = 0
        for node in nodes:
            if engine.satisfies(node, expr):
                satisfied += 1
            engine.score(node, expr)
        return satisfied

    satisfied = benchmark(run)
    benchmark.extra_info["probes"] = 2 * len(nodes)
    benchmark.extra_info["satisfied"] = satisfied
