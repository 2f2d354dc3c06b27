"""Documentation hygiene: the promised files exist and cross-references hold."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestRequiredDocuments:
    @pytest.mark.parametrize(
        "name",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "docs/QUERY_LANGUAGE.md",
            "docs/ALGORITHMS.md",
            "docs/EXTENDING.md",
        ],
    )
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text(encoding="utf-8")) > 500, name


class TestCrossReferences:
    def test_design_mentions_every_figure_bench(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for number in range(9, 17):
            assert ("bench_fig%02d" % number) in design, number

    def test_every_referenced_bench_module_exists(self):
        text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        text += (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for stem in set(re.findall(r"bench_\w+", text)):
            if stem == "bench_output":
                continue  # the captured-results file, not a module
            matches = list((ROOT / "benchmarks").glob(stem + "*.py"))
            assert matches, stem

    def test_every_referenced_example_exists(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for name in set(re.findall(r"examples/(\w+\.py)", readme)):
            assert (ROOT / "examples" / name).exists(), name

    def test_experiments_covers_all_eight_figures(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for number in range(9, 17):
            assert ("Figure %d" % number) in experiments, number

    def test_experiments_tests_exist(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for path in set(re.findall(r"tests/[\w/]+\.py", experiments)):
            assert (ROOT / path).exists(), path


def test_the_eval_cache_example_in_extending_runs():
    """``docs/EXTENDING.md``'s EvaluationCache example, executed as written:
    counted once when cold, all hits when warm, nothing recorded when the
    cache is off — and the same arguments every time."""
    from repro.topk import ExecutionSession, QueryContext
    from repro.xmark import generate_document

    text = (ROOT / "docs/EXTENDING.md").read_text(encoding="utf-8")
    section = text.split("## Opting a custom strategy into the EvaluationCache")[1]
    block, = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], flags=re.S)
    namespace = {}
    exec(compile(block, "docs/EXTENDING.md[eval cache]", "exec"), namespace)
    arguments_of = namespace["my_source_arguments"]

    context = QueryContext(generate_document(target_bytes=30_000, seed=3))
    session = ExecutionSession(context.executor)
    cache = context.eval_cache
    cold = arguments_of(session)
    chosen = cold["pool_restrictions"]["$1"]
    assert 0 < len(chosen) <= 10
    items = len(context.backend.node_ids_with_tag("item"))
    counts = cache.metrics_snapshot()
    assert counts["eval_cache.contains.misses"] == items
    assert counts["eval_cache.contains.hits"] == 0
    assert arguments_of(session) == cold
    counts = cache.metrics_snapshot()
    assert counts["eval_cache.contains.misses"] == items
    assert counts["eval_cache.contains.hits"] == items
    cache.enabled = False
    before = cache.info()
    assert arguments_of(session) == cold
    assert cache.info() == before


def test_the_trace_sink_example_in_extending_runs():
    """``docs/EXTENDING.md``'s JSON-lines sink, executed as written: one
    line per sampled query, carrying the whole trace."""
    import io
    import json

    from repro.engine import Engine

    text = (ROOT / "docs/EXTENDING.md").read_text(encoding="utf-8")
    section = text.split("## Exporting traces")[1]
    block, = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], flags=re.S)
    namespace = {}
    exec(compile(block, "docs/EXTENDING.md[trace sink]", "exec"), namespace)

    engine = Engine.from_xml("<library><article><title>x</title></article></library>")
    stream = io.StringIO()
    engine.configure_tracing(namespace["JsonLinesSink"](stream), sample_rate=1.0)
    engine.query("//article[./title]", k=3)
    engine.query("//article[./abstract]", k=3)
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert [record["query"] for record in records] == [
        "//article[./title]", "//article[./abstract]"
    ]
    assert all(record["sampled"] for record in records)
    assert {"compile", "execute"} <= set(records[0]["spans"])


def test_eval_cache_tier_lists_match_the_code():
    """The ``eval_cache.py`` docstring and DESIGN's tier table name exactly
    the tiers :class:`EvaluationCache` has, in the same order."""
    from repro.plans import eval_cache

    tiers = list(eval_cache.TIERS)
    assert sorted(eval_cache.EvaluationCache()._tiers) == sorted(tiers)
    in_docstring = re.findall(r"^- \*\*(\w+)\*\* —", eval_cache.__doc__, flags=re.M)
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    in_design = re.findall(r"^\| `(\w+)` \| `(?:value|table)` \|", design, flags=re.M)
    assert in_docstring == tiers
    assert in_design == tiers


def test_the_strategy_example_in_extending_runs():
    """``docs/EXTENDING.md``'s stateless strategy, executed as written: it
    reads the strict runs' ``matches`` tables and returns DPO's
    structure-first answers, on one source and on two shards."""
    from repro.backend.sharded import RoundRobinRouter
    from repro.engine import Engine
    from repro.query import parse_query
    from repro.topk import DPO
    from repro.xmark import PAPER_QUERIES, generate_document

    text = (ROOT / "docs/EXTENDING.md").read_text(encoding="utf-8")
    section = text.split("## Writing a stateless strategy (compile/execute)")[1]
    block, = re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], flags=re.S)
    namespace = {}
    exec(compile(block, "docs/EXTENDING.md[strategy]", "exec"), namespace)
    strategy = namespace["MyStrategy"]

    docs = [generate_document(target_bytes=30_000, seed=seed) for seed in (3, 4)]
    sharded = Engine.sharded(2, router=RoundRobinRouter(), cache=False)
    for index, doc in enumerate(docs):
        sharded.backend.add_document(doc, name="doc%d" % index)
    try:
        for engine in (Engine(docs[0], cache=False), sharded):
            for query in map(parse_query, PAPER_QUERIES.values()):
                for k in (3, 40):
                    got = strategy(engine.context).top_k(query, k)
                    expected = DPO(engine.context).top_k(query, k)
                    assert [
                        (a.node_id, a.score, a.relaxation_level, a.satisfied)
                        for a in got.answers
                    ] == [
                        (a.node_id, a.score, a.relaxation_level, a.satisfied)
                        for a in expected.answers
                    ], (query, k)
                    assert got.answers
    finally:
        sharded.context.close()
