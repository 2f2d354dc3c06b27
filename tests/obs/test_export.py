"""Trace export: a traced query with a sink ships its finished
``QueryTrace`` as one record, after the lock is released."""

import random
import threading

import pytest

import repro.session
from repro import FleXPath
from repro.backend.sharded import RoundRobinRouter
from repro.engine import Engine
from repro.errors import FleXPathError, QueryCancelledError
from repro.obs import QueryTrace
from repro.obs.metrics import REGISTRY
from repro.xmltree import parse
from tests.conftest import LIBRARY_XML

pytestmark = pytest.mark.usefixtures("clean_observability")

QUERY = '//article[./section[./paragraph and .contains("streaming")]]'


class ListSink:
    """The smallest sink: keeps every record it is handed."""

    def __init__(self):
        self.records = []

    def export(self, record):
        self.records.append(record)


def _engine(kind):
    if kind == "memory":
        return Engine.from_xml(LIBRARY_XML)
    engine = Engine.sharded(2, router=RoundRobinRouter())
    for index in range(2):
        engine.backend.add_document(parse(LIBRARY_XML), name="doc%d" % index)
    return engine


def _exported():
    return REGISTRY.as_dict()["counters"].get("trace.exported", 0)


class TestTraceSampler:
    """The per-query sampling decision: one ``random() < rate``."""

    def test_rate_extremes_short_circuit(self):
        engine = Engine.from_xml(LIBRARY_XML)
        never, always = ListSink(), ListSink()
        engine.configure_tracing(never, sample_rate=0.0)
        for _ in range(5):
            engine.query(QUERY, k=3)
        engine.configure_tracing(always, sample_rate=1.0)
        for _ in range(5):
            engine.query(QUERY, k=3)
        assert never.records == []
        assert len(always.records) == 5

    def test_rate_out_of_range_raises(self):
        engine = Engine.from_xml(LIBRARY_XML)
        for rate in (-0.1, 1.5):
            with pytest.raises(FleXPathError):
                engine.configure_tracing(ListSink(), sample_rate=rate)
        assert engine.trace_sink is None

    def test_mid_rate_uses_the_rng(self, monkeypatch):
        monkeypatch.setattr(repro.session, "random", random.Random(7).random)
        engine = Engine.from_xml(LIBRARY_XML)
        sink = ListSink()
        engine.configure_tracing(sink, sample_rate=0.5)
        for _ in range(40):
            engine.query(QUERY, k=3)
        assert 0 < len(sink.records) < 40


class TestEngineTracing:
    def test_configure_and_detach(self):
        engine = Engine.from_xml(LIBRARY_XML)
        sink = ListSink()
        engine.configure_tracing(sink, sample_rate=0.25)
        assert engine.trace_sink is sink
        assert engine.trace_sample_rate == 0.25
        engine.configure_tracing(None)
        assert engine.trace_sink is None
        assert engine.trace_sample_rate is None

    def test_sampled_query_exports_and_returns_bare_result(self):
        engine = Engine.from_xml(LIBRARY_XML)
        sink = ListSink()
        engine.configure_tracing(sink, sample_rate=1.0)
        result = engine.query(QUERY, k=3)
        assert not isinstance(result, QueryTrace)  # caller gets the bare result
        (record,) = sink.records
        assert record["query"] == QUERY
        assert record["sampled"] is True
        assert record["answers"] == len(result.answers)
        assert record["algorithm"] == result.algorithm
        assert _exported() == 1

    def test_zero_rate_never_exports(self):
        engine = Engine.from_xml(LIBRARY_XML)
        sink = ListSink()
        engine.configure_tracing(sink, sample_rate=0.0)
        engine.query(QUERY, k=3)
        assert sink.records == []
        assert _exported() == 0

    def test_explicit_trace_also_exports_when_sink_configured(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        sink = ListSink()
        engine.configure_tracing(sink, sample_rate=0.0)
        trace = engine.query(QUERY, k=3, trace=True)
        (record,) = sink.records
        assert record["sampled"] is False
        assert trace.trace_id == record["trace_id"]
        shipped = {
            key: value for key, value in record.items()
            if key not in ("query", "sampled")
        }
        assert shipped == trace.as_dict()

    def test_untraced_query_trace_id_is_none(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        trace = engine.query(QUERY, k=3, trace=True)
        assert trace.trace_id is None
        assert trace.as_dict()["trace_id"] is None

    def test_each_sampled_query_gets_its_own_trace_id(self):
        engine = Engine.from_xml(LIBRARY_XML)
        sink = ListSink()
        engine.configure_tracing(sink, sample_rate=1.0)
        engine.query("//article[./title]", k=3)
        engine.query("//article[./abstract]", k=3)
        assert len(sink.records) == 2
        assert sink.records[0]["trace_id"] != sink.records[1]["trace_id"]


class TestOneRecordPerQuery:
    @pytest.mark.parametrize("algorithm", ["dpo", "hybrid"])
    @pytest.mark.parametrize("kind", ["memory", "sharded"])
    def test_record_names_every_span_of_the_trace(self, kind, algorithm):
        sampled = _engine(kind)
        sink = ListSink()
        sampled.configure_tracing(sink, sample_rate=1.0)
        sampled.query(QUERY, k=3, algorithm=algorithm)
        (record,) = sink.records
        trace = _engine(kind).query(QUERY, k=3, algorithm=algorithm, trace=True)
        spans = set(record["spans"])
        assert spans == set(trace.as_dict()["spans"])
        assert {"compile", "execute"} <= spans
        if kind == "sharded":
            assert {"shard 0", "shard 1"} <= spans
        if algorithm == "dpo":
            assert "twig" in spans
        else:
            assert {"seed", "extend", "checks", "collect"} <= spans
        assert record["phases"] == {
            name: entry for name, entry in record["spans"].items()
            if name in record["phases"]
        }


class TestExportContract:
    def test_aborted_sampled_query_exports_nothing(self, monkeypatch):
        class AbortAtFirstCheck(repro.session.QueryControl):
            def check(self):
                raise QueryCancelledError("query cancelled")

        monkeypatch.setattr(repro.session, "QueryControl", AbortAtFirstCheck)
        engine = Engine.from_xml(LIBRARY_XML)
        sink = ListSink()
        engine.configure_tracing(sink, sample_rate=1.0)
        with pytest.raises(QueryCancelledError):
            engine.query(QUERY, k=3, deadline_ms=60_000)
        assert sink.records == []
        assert _exported() == 0

    def test_export_runs_with_the_lock_free(self):
        engine = Engine.from_xml(LIBRARY_XML)
        blocked = []

        class ProbingSink:
            def export(self, record):
                def read():
                    with engine.lock.read_locked():
                        pass

                reader = threading.Thread(target=read, daemon=True)
                reader.start()
                reader.join(timeout=2)
                blocked.append(reader.is_alive())

        engine.configure_tracing(ProbingSink(), sample_rate=1.0)
        engine.query(QUERY, k=3)
        assert blocked == [False]

    def test_sink_exception_reaches_the_caller(self):
        class BrokenSink:
            def export(self, record):
                raise RuntimeError("collector down")

        engine = Engine.from_xml(LIBRARY_XML)
        engine.configure_tracing(BrokenSink(), sample_rate=1.0)
        with pytest.raises(RuntimeError, match="collector down"):
            engine.query(QUERY, k=3)
        assert _exported() == 0
