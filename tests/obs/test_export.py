"""Structured span export: sinks, sampling, and tracer linkage."""

import json
import random
import threading

import pytest

from repro import FleXPath
from repro.engine import Engine
from repro.errors import FleXPathError
from repro.obs.export import (
    InMemoryTraceSink,
    JsonlTraceSink,
    TraceSampler,
    TraceSink,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from tests.conftest import LIBRARY_XML


class TestInMemoryTraceSink:
    def test_records_oldest_first(self):
        sink = InMemoryTraceSink()
        sink.export({"name": "a"})
        sink.export({"name": "b"})
        assert [r["name"] for r in sink.records()] == ["a", "b"]

    def test_capacity_bounds_retention(self):
        sink = InMemoryTraceSink(capacity=2)
        for name in "abc":
            sink.export({"name": name})
        assert [r["name"] for r in sink.records()] == ["b", "c"]
        assert len(sink) == 2
        assert sink.capacity == 2

    def test_capacity_below_one_raises(self):
        with pytest.raises(FleXPathError):
            InMemoryTraceSink(capacity=0)

    def test_clear_empties(self):
        sink = InMemoryTraceSink()
        sink.export({"name": "a"})
        sink.clear()
        assert sink.records() == []

    def test_concurrent_exports_lose_nothing(self):
        sink = InMemoryTraceSink(capacity=10_000)
        threads = [
            threading.Thread(
                target=lambda: [sink.export({"i": i}) for i in range(500)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sink) == 2000


class TestJsonlTraceSink:
    def test_writes_one_json_line_per_record(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.export({"name": "a", "seconds": 0.5})
            sink.export({"name": "b", "seconds": 0.25})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_export_after_close_is_ignored(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonlTraceSink(path)
        sink.close()
        sink.export({"name": "late"})
        assert path.read_text() == ""

    def test_appends_across_reopens(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        for name in ("a", "b"):
            with JsonlTraceSink(path) as sink:
                sink.export({"name": name})
        assert len(path.read_text().splitlines()) == 2


class TestTraceSampler:
    def test_rate_extremes_short_circuit(self):
        assert TraceSampler(0.0).sample() is False
        assert TraceSampler(1.0).sample() is True

    def test_rate_out_of_range_raises(self):
        with pytest.raises(FleXPathError):
            TraceSampler(-0.1)
        with pytest.raises(FleXPathError):
            TraceSampler(1.5)

    def test_mid_rate_uses_the_rng(self):
        sampler = TraceSampler(0.5, rng=random.Random(7))
        decisions = [sampler.sample() for _ in range(200)]
        assert any(decisions) and not all(decisions)

    def test_base_sink_export_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TraceSink().export({})


class TestTracerExport:
    def test_without_sink_no_records_and_no_trace_id(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert tracer.sink is None
        assert tracer.trace_id is None
        tracer.finish_root("query")  # no-op, must not raise

    def test_null_tracer_has_no_sink(self):
        assert NULL_TRACER.sink is None

    def test_span_records_link_to_the_root(self):
        sink = InMemoryTraceSink()
        tracer = Tracer(sink=sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.finish_root("query", attributes={"k": 5})
        records = {r["name"]: r for r in sink.records()}
        assert set(records) == {"outer", "inner", "query"}
        root = records["query"]
        assert root["parent_id"] is None
        assert root["attributes"] == {"k": 5}
        assert records["outer"]["parent_id"] == root["span_id"]
        assert records["inner"]["parent_id"] == records["outer"]["span_id"]
        assert len({r["span_id"] for r in sink.records()}) == 3
        assert {r["trace_id"] for r in sink.records()} == {tracer.trace_id}

    def test_records_carry_wall_clock_interval(self):
        sink = InMemoryTraceSink()
        tracer = Tracer(sink=sink)
        with tracer.span("a"):
            pass
        (record,) = sink.records()
        assert record["end"] >= record["start"]
        assert record["seconds"] >= 0.0
        assert record["end"] == pytest.approx(
            record["start"] + record["seconds"], abs=1e-6
        )

    def test_explicit_trace_id_is_honored(self):
        sink = InMemoryTraceSink()
        tracer = Tracer(sink=sink, trace_id="abc123")
        with tracer.span("a"):
            pass
        assert sink.records()[0]["trace_id"] == "abc123"


class TestEngineTracing:
    def test_configure_and_detach(self):
        engine = Engine.from_xml(LIBRARY_XML)
        sink = InMemoryTraceSink()
        engine.configure_tracing(sink, sample_rate=0.25)
        assert engine.trace_sink is sink
        assert engine.trace_sampler.rate == 0.25
        engine.configure_tracing(None)
        assert engine.trace_sink is None
        assert engine.trace_sampler is None

    def test_sampled_query_exports_and_returns_bare_result(self):
        engine = Engine.from_xml(LIBRARY_XML)
        sink = InMemoryTraceSink()
        engine.configure_tracing(sink, sample_rate=1.0)
        from repro.obs import QueryTrace

        result = engine.query("//article[./title]", k=3)
        assert not isinstance(result, QueryTrace)  # caller gets the bare result
        names = [r["name"] for r in sink.records()]
        assert "query" in names
        root = next(r for r in sink.records() if r["name"] == "query")
        assert root["attributes"]["sampled"] is True
        assert root["attributes"]["answers"] == len(result.answers)

    def test_zero_rate_never_exports(self):
        engine = Engine.from_xml(LIBRARY_XML)
        sink = InMemoryTraceSink()
        engine.configure_tracing(sink, sample_rate=0.0)
        engine.query("//article[./title]", k=3)
        assert sink.records() == []

    def test_explicit_trace_also_exports_when_sink_configured(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        sink = InMemoryTraceSink()
        engine.configure_tracing(sink, sample_rate=0.0)
        trace = engine.query("//article[./title]", k=3, trace=True)
        root = next(r for r in sink.records() if r["name"] == "query")
        assert root["attributes"]["sampled"] is False
        assert trace.trace_id == root["trace_id"]

    def test_untraced_query_trace_id_is_none(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        trace = engine.query("//article[./title]", k=3, trace=True)
        assert trace.trace_id is None
        assert trace.as_dict()["trace_id"] is None

    def test_each_sampled_query_gets_its_own_trace_id(self):
        engine = Engine.from_xml(LIBRARY_XML)
        sink = InMemoryTraceSink()
        engine.configure_tracing(sink, sample_rate=1.0)
        engine.query("//article[./title]", k=3)
        engine.query("//article[./abstract]", k=3)
        roots = [r for r in sink.records() if r["name"] == "query"]
        assert len(roots) == 2
        assert roots[0]["trace_id"] != roots[1]["trace_id"]
