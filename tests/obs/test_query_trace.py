"""End-to-end tracing: ``trace=True``, per-level traces, CLI --analyze."""

import io
import json

import pytest

from repro import Engine, FleXPath
from repro.backend.sharded import RoundRobinRouter
from repro.cli import main
from repro.obs import PHASES, QueryTrace, Tracer
from repro.query import parse_query
from repro.topk import DPO, QueryContext
from repro.xmark import generate_document
from repro.xmltree.serialize import write_xml

QUERY = '//item[./description and .contains("gold")]'


@pytest.fixture(scope="module")
def doc():
    return generate_document(target_bytes=40_000, seed=11)


@pytest.fixture(scope="module")
def engine(doc):
    return FleXPath(doc)


class TestQueryTrace:
    @pytest.mark.parametrize("algorithm", ["dpo", "sso", "hybrid"])
    def test_traced_answers_match_untraced(self, engine, algorithm):
        trace = engine.query(QUERY, k=5, algorithm=algorithm, trace=True)
        plain = engine.query(QUERY, k=5, algorithm=algorithm)
        assert isinstance(trace, QueryTrace)
        assert trace.algorithm == plain.algorithm
        assert [a.node_id for a in trace.answers] == [
            a.node_id for a in plain.answers
        ]

    def test_phase_aggregates_are_executor_phases(self, engine):
        trace = engine.query(QUERY, k=5, trace=True)
        phases = trace.phase_aggregates()
        assert phases
        assert set(phases) <= set(PHASES)
        for entry in phases.values():
            assert entry["seconds"] >= 0.0
            assert entry["calls"] >= 1

    def test_levels_carry_stats(self, engine):
        trace = engine.query(QUERY, k=5, algorithm="dpo", trace=True)
        assert len(trace.levels) == trace.result.levels_evaluated
        for level in trace.levels:
            assert level.label.startswith("level ")
            assert level.stats.tuples_produced >= 0
            assert level.total_seconds() >= 0.0

    def test_counter_totals_include_ir_and_executor(self, engine):
        trace = engine.query(QUERY, k=5, trace=True)
        totals = trace.counter_totals()
        # With a warm EvaluationCache the contains probes hit the memo
        # instead of the IR engine; either way the work must be visible.
        ir_calls = totals.get("ir.satisfies_calls", 0)
        memo_hits = totals.get("eval_cache.contains.hits", 0)
        assert ir_calls + memo_hits > 0
        assert totals.get("executor.tuples_produced", 0) > 0

    def test_as_dict_is_json_safe(self, engine):
        trace = engine.query(QUERY, k=5, trace=True)
        payload = json.loads(json.dumps(trace.as_dict()))
        assert payload["algorithm"] == trace.algorithm
        assert payload["phases"]
        assert payload["levels"]
        assert {"compile", "execute"} <= set(payload["spans"])

    def test_as_dict_spans_carry_the_shard_spans(self, doc):
        sharded = Engine.sharded(2, router=RoundRobinRouter())
        for index in range(2):
            sharded.backend.add_document(doc, name="doc%d" % index)
        trace = sharded.query(QUERY, k=5, algorithm="dpo", trace=True)
        assert {"shard 0", "shard 1"} <= set(trace.as_dict()["spans"])

    def test_format_mentions_phases_and_counters(self, engine):
        trace = engine.query(QUERY, k=5, algorithm="dpo", trace=True)
        text = trace.format()
        assert "phase breakdown:" in text
        assert "seed" in text
        assert "per-level breakdown:" in text
        assert "max_intermediate" in text

    def test_tracer_detached_after_query(self, engine):
        """No shared component keeps a query's tracer: later queries,
        traced or not, leave it exactly as its own query did."""
        tracer = Tracer()
        engine.strategy("dpo").top_k(parse_query(QUERY), 5, tracer=tracer)
        done = tracer.snapshot()
        engine.query(QUERY, k=5, algorithm="sso")
        engine.query(QUERY, k=5, algorithm="dpo", trace=True)
        assert tracer.snapshot() == done

    def test_untraced_query_records_nothing(self, engine):
        result = engine.query(QUERY, k=5, algorithm="dpo")
        assert result.traces == []
        assert result.stats  # the counts still ride the result

    def test_bare_top_k_reports_ir_counters(self, doc):
        """The tracer handed to ``top_k`` gets the IR engine's counters with
        no attach step around the call."""
        tracer = Tracer()
        DPO(QueryContext(doc)).top_k(parse_query(QUERY), 5, tracer=tracer)
        assert tracer.counters["ir.satisfies_calls"] > 0
        assert tracer.counters["eval_cache.contains.misses"] > 0


class TestCliAnalyze:
    def test_explain_analyze_prints_breakdown(self, doc, tmp_path):
        path = tmp_path / "doc.xml"
        write_xml(doc, str(path))
        out = io.StringIO()
        code = main(
            ["explain", "--analyze", "--algorithm", "dpo", str(path), QUERY],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "phase breakdown:" in text
        assert "counters:" in text
        # The schedule description still precedes the analysis.
        assert "level 0:" in text

    def test_explain_without_analyze_unchanged(self, doc, tmp_path):
        path = tmp_path / "doc.xml"
        write_xml(doc, str(path))
        out = io.StringIO()
        code = main(["explain", str(path), QUERY], out=out)
        assert code == 0
        assert "phase breakdown:" not in out.getvalue()
