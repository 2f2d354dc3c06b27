"""The tracer substrate: spans, counters, merging, the null object."""

import time

from repro.obs import NULL_TRACER, NullTracer, Tracer


class TestNullTracer:
    def test_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_span_is_shared_noop(self):
        first = NULL_TRACER.span("a")
        second = NULL_TRACER.span("b")
        assert first is second  # one shared instance, no allocation per call
        with first:
            pass

    def test_count_and_merge_are_noops(self):
        NULL_TRACER.count("anything", 5)
        NULL_TRACER.merge(Tracer())
        assert NULL_TRACER.snapshot() == {"spans": {}, "counters": {}}

    def test_singleton_class(self):
        assert isinstance(NULL_TRACER, NullTracer)


class TestTracer:
    def test_span_accumulates_time_and_calls(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("work"):
                time.sleep(0.001)
        work = tracer.snapshot()["spans"]["work"]
        assert work["calls"] == 3
        assert work["seconds"] >= 0.003

    def test_unknown_span_reads_zero(self):
        tracer = Tracer()
        assert "never" not in tracer.snapshot()["spans"]

    def test_span_records_on_exception(self):
        tracer = Tracer()
        try:
            with tracer.span("explodes"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert tracer.snapshot()["spans"]["explodes"]["calls"] == 1

    def test_counters(self):
        tracer = Tracer()
        tracer.count("hits")
        tracer.count("hits")
        tracer.count("scanned", 40)
        assert tracer.counters == {"hits": 2, "scanned": 40}

    def test_merge(self):
        left = Tracer()
        with left.span("seed"):
            pass
        left.count("hits", 2)
        right = Tracer()
        with right.span("seed"):
            pass
        with right.span("extend"):
            pass
        right.count("hits", 3)
        right.count("misses", 1)
        left.merge(right)
        spans = left.snapshot()["spans"]
        assert spans["seed"]["calls"] == 2
        assert spans["extend"]["calls"] == 1
        assert left.counters == {"hits": 5, "misses": 1}

    def test_snapshot_shape(self):
        tracer = Tracer()
        with tracer.span("seed"):
            pass
        tracer.count("hits")
        snapshot = tracer.snapshot()
        assert set(snapshot) == {"spans", "counters"}
        assert set(snapshot["spans"]["seed"]) == {"seconds", "calls"}
        assert snapshot["counters"] == {"hits": 1}
        # A snapshot is a copy: mutating it does not touch the tracer.
        snapshot["counters"]["hits"] = 99
        assert tracer.counters["hits"] == 1
