"""The always-on metrics registry."""

import json
import sys
import threading

import pytest

from repro import FleXPath
from repro.collection import Corpus
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from repro.xmark import generate_document
from tests.conftest import LIBRARY_XML


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_inc_defaults_to_one(self, registry):
        registry.inc("a")
        registry.inc("a")
        registry.inc("b", 5)
        assert registry.counter("a") == 2
        assert registry.counter("b") == 5

    def test_unknown_counter_reads_zero(self, registry):
        assert registry.counter("never.touched") == 0

    def test_inc_many_folds_in_one_call(self, registry):
        registry.inc_many({"a": 2, "b": 3})
        registry.inc_many({"a": 1})
        assert registry.counter("a") == 3
        assert registry.counter("b") == 3

    def test_disabled_registry_ignores_writes(self, registry):
        registry.enabled = False
        registry.inc("a")
        registry.inc_many({"b": 2})
        registry.observe("h", 0.5)
        registry.set_gauge("g", 7)
        assert registry.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}, "derived": {},
        }


class TestGauges:
    def test_set_gauge_overwrites(self, registry):
        registry.set_gauge("g", 3)
        registry.set_gauge("g", 1)
        assert registry.gauge("g") == 1

    def test_set_gauge_max_keeps_high_water_mark(self, registry):
        registry.set_gauge_max("g", 3)
        registry.set_gauge_max("g", 1)
        registry.set_gauge_max("g", 9)
        assert registry.gauge("g") == 9


class TestHistograms:
    def test_bucket_bounds_are_log_scale(self):
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-4)
        ratios = [
            BUCKET_BOUNDS[i + 1] / BUCKET_BOUNDS[i]
            for i in range(len(BUCKET_BOUNDS) - 1)
        ]
        assert all(ratio == pytest.approx(2.0) for ratio in ratios)

    def test_observe_tracks_count_sum_min_max(self, registry):
        registry.observe("h", 0.001)
        registry.observe("h", 0.004)
        snapshot = registry.histogram("h")
        assert snapshot["count"] == 2
        assert snapshot["sum"] == pytest.approx(0.005)
        assert snapshot["min"] == pytest.approx(0.001)
        assert snapshot["max"] == pytest.approx(0.004)

    def test_overflow_bucket_catches_huge_values(self):
        histogram = Histogram()
        histogram.observe(1e9)
        assert histogram.counts[-1] == 1

    def test_timer_observes_elapsed_seconds(self, registry):
        with registry.timer("h"):
            pass
        snapshot = registry.histogram("h")
        assert snapshot["count"] == 1
        assert snapshot["sum"] >= 0.0


class TestExposition:
    def test_as_dict_round_trips_through_json(self, registry):
        registry.inc("query.count", 2)
        registry.set_gauge("corpus.documents", 1)
        registry.observe("query.seconds", 0.002)
        payload = json.loads(json.dumps(registry.as_dict()))
        assert payload["counters"]["query.count"] == 2
        assert payload["gauges"]["corpus.documents"] == 1
        assert payload["histograms"]["query.seconds"]["count"] == 1

    def test_derived_cache_hit_ratio(self, registry):
        registry.inc("ir.cache_hits", 3)
        registry.inc("ir.cache_misses", 1)
        assert registry.as_dict()["derived"]["ir.cache_hit_ratio"] == (
            pytest.approx(0.75)
        )

    def test_expose_text_is_prometheus_shaped(self, registry):
        registry.inc("query.count", 2)
        registry.observe("query.seconds", 0.002)
        text = registry.expose_text()
        assert "# TYPE flexpath_query_count counter" in text
        assert "flexpath_query_count 2" in text
        assert "# TYPE flexpath_query_seconds histogram" in text
        assert 'flexpath_query_seconds_bucket{le="+Inf"} 1' in text
        assert "flexpath_query_seconds_count 1" in text

    def test_prometheus_buckets_are_cumulative(self, registry):
        registry.observe("h", BUCKET_BOUNDS[0] / 2)
        registry.observe("h", BUCKET_BOUNDS[3])
        lines = [
            line for line in registry.expose_text().splitlines()
            if line.startswith("flexpath_h_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 2

    def test_reset_clears_everything(self, registry):
        registry.inc("a")
        registry.set_gauge("g", 1)
        registry.observe("h", 0.1)
        registry.reset()
        assert registry.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}, "derived": {},
        }


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self, registry):
        """The documented contract: one shared lock makes concurrent
        folds from worker threads exact, not approximate."""
        threads_count, per_thread = 8, 2500

        def hammer():
            for _ in range(per_thread):
                registry.inc("hits")
                registry.inc_many({"hits": 2, "other": 1})
                registry.observe("lat", 0.001)

        threads = [
            threading.Thread(target=hammer) for _ in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("hits") == threads_count * per_thread * 3
        assert registry.counter("other") == threads_count * per_thread
        assert (
            registry.histogram("lat")["count"]
            == threads_count * per_thread
        )


class TestGlobalRegistry:
    def test_get_registry_returns_the_process_singleton(self):
        assert get_registry() is REGISTRY

    def test_query_populates_the_registry(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        REGISTRY.reset()
        engine.query("//article[./section/paragraph]", k=3)
        engine.exact("//section")
        snapshot = REGISTRY.as_dict()
        assert snapshot["counters"]["query.count"] == 1
        assert snapshot["counters"]["exact.count"] == 1
        assert snapshot["counters"]["executor.plans_executed"] >= 1
        assert snapshot["histograms"]["query.seconds"]["count"] == 1
        assert any(
            name.startswith("topk.hybrid.") for name in snapshot["counters"]
        )

    def test_exact_records_no_top_k_metric(self):
        """``exact`` runs the level-0 plan, but it is not a top-K query."""
        engine = FleXPath.from_xml(LIBRARY_XML)
        REGISTRY.reset()
        engine.exact('//section[.contains("XML")]')
        snapshot = REGISTRY.as_dict()
        assert snapshot["counters"]["exact.count"] == 1
        names = set(snapshot["counters"]) | set(snapshot["histograms"])
        assert not [
            name for name in names if name.startswith(("topk.", "query."))
        ]
        # exact folded what its plan counted: a following query reports
        # only its own lifetime deltas.
        REGISTRY.reset()
        components = (engine.context.ir, engine.context.eval_cache)
        before = [part.metrics_snapshot() for part in components]
        engine.query('//article[./section[.contains("XML")]]', k=3)
        expected = {}
        for part, mark in zip(components, before):
            for name, value in part.metrics_snapshot().items():
                if value != mark.get(name, 0):
                    expected[name] = value - mark.get(name, 0)
        counters = REGISTRY.as_dict()["counters"]
        assert expected
        assert {name: counters.get(name) for name in expected} == expected
        assert not [
            name for name in counters
            if name.startswith(("ir.", "eval_cache.")) and name not in expected
        ]

    def test_ir_counters_fold_per_query(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        REGISTRY.reset()
        engine.query(
            '//article[./section[.contains("XML")]]', k=3
        )
        counters = REGISTRY.as_dict()["counters"]
        assert counters.get("ir.satisfies_calls", 0) >= 1

    def test_corpus_ingest_is_counted(self):
        corpus = Corpus()
        REGISTRY.reset()
        corpus.add_text("<doc><a>one</a></doc>", name="d0")
        snapshot = REGISTRY.as_dict()
        assert snapshot["counters"]["corpus.documents_added"] == 1
        assert snapshot["counters"]["corpus.nodes_added"] >= 2
        assert snapshot["gauges"]["corpus.documents"] == 1
        assert snapshot["histograms"]["corpus.ingest_seconds"]["count"] == 1

    def test_disabled_registry_skips_query_accounting(self):
        engine = FleXPath.from_xml(LIBRARY_XML)
        REGISTRY.reset()
        REGISTRY.enabled = False
        try:
            engine.query("//article", k=2)
        finally:
            REGISTRY.enabled = True
        assert REGISTRY.as_dict()["counters"] == {}


class _Component:
    """Lifetime counters behind ``metrics_snapshot``, like an IR engine's."""

    def __init__(self):
        self.calls = 0

    def metrics_snapshot(self):
        return {"c.calls": self.calls}


CONTAINS_QUERIES = [
    '//item[./description and .contains("%s")]' % word
    for word in ("gold", "vintage", "rare", "mint", "signed", "antique")
] + ['//mail[./text and .contains("%s")]' % word for word in ("gold", "rare")]


class TestLifetimeFolds:
    def test_fold_adds_what_was_counted_since_the_last_fold(self, registry):
        first, second = _Component(), _Component()
        first.calls = 3
        registry.fold_lifetime([first, second])
        first.calls += 2
        second.calls = 4
        registry.fold_lifetime([first, second])
        registry.fold_lifetime([first])
        assert registry.counter("c.calls") == 9

    def test_reset_keeps_the_marks(self, registry):
        component = _Component()
        component.calls = 5
        registry.fold_lifetime([component])
        registry.reset()
        component.calls = 7
        registry.fold_lifetime([component])
        assert registry.counter("c.calls") == 2

    def test_concurrent_queries_fold_each_increment_once(self):
        """Overlapping queries on one engine: the registry's IR totals are
        exactly what the IR engine counted, however the queries
        interleave.  (A millisecond query fits one default thread switch
        interval, so the interval is shortened to make the queries
        overlap.)"""
        engine = FleXPath(generate_document(target_bytes=60_000, seed=5),
                          cache=False)
        ir = engine.context.ir
        engine.query(CONTAINS_QUERIES[0], k=5)  # the engine's first fold
        REGISTRY.reset()
        before = ir.metrics_snapshot()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            engine.query_many(CONTAINS_QUERIES * 2, k=5, workers=4)
        finally:
            sys.setswitchinterval(interval)
        after = ir.metrics_snapshot()
        assert after["ir.satisfies_calls"] > before["ir.satisfies_calls"]
        for name, value in after.items():
            assert REGISTRY.counter(name) == value - before[name], name

    def test_counts_made_while_disabled_never_surface(self):
        """Registry off for one query, back on for the next: only the last
        query's IR work is in the registry."""
        engine = FleXPath(generate_document(target_bytes=40_000, seed=5),
                          cache=False)
        ir = engine.context.ir
        REGISTRY.reset()
        REGISTRY.enabled = False
        try:
            engine.query(CONTAINS_QUERIES[0], k=5)
        finally:
            REGISTRY.enabled = True
        before = ir.metrics_snapshot()["ir.satisfies_calls"]
        engine.query(CONTAINS_QUERIES[1], k=5)
        delta = ir.metrics_snapshot()["ir.satisfies_calls"] - before
        assert delta > 0
        assert REGISTRY.counter("ir.satisfies_calls") == delta

    def test_ir_counters_count_nodes_not_door_calls(self, monkeypatch):
        """A ``contains`` query asks the IR engine through its id door:
        ``ir.satisfies_calls`` grows by the ids filled, ``ir.score_calls``
        by the satisfiers scored — per node, however the ids are batched."""
        engine = FleXPath(generate_document(target_bytes=40_000, seed=5),
                          cache=False)
        ir = engine.context.ir
        engine.query(CONTAINS_QUERIES[0], k=5)  # the engine's first fold
        filled = []
        scored = []
        door = ir.contains_scores

        def counting(expression, node_ids):
            scores = door(expression, node_ids)
            filled.extend(scores)
            scored.extend(s for s in scores.values() if s is not None)
            return scores

        monkeypatch.setattr(ir, "contains_scores", counting)
        REGISTRY.reset()
        engine.query(CONTAINS_QUERIES[1], k=5)
        assert len(filled) > len(scored) > 0
        assert REGISTRY.counter("ir.satisfies_calls") == len(filled)
        assert REGISTRY.counter("ir.score_calls") == len(scored)


class TestQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) is None
        assert histogram.as_dict()["derived"] == {
            "p50": None, "p95": None, "p99": None,
        }

    def test_single_observation_pins_every_quantile(self):
        histogram = Histogram()
        histogram.observe(0.003)
        for q in (0.5, 0.95, 0.99):
            assert histogram.quantile(q) == pytest.approx(0.003)

    def test_quantiles_are_monotone_and_bounded(self):
        histogram = Histogram()
        values = [0.0002 * (i + 1) for i in range(100)]
        for value in values:
            histogram.observe(value)
        p50 = histogram.quantile(0.50)
        p95 = histogram.quantile(0.95)
        p99 = histogram.quantile(0.99)
        assert min(values) <= p50 <= p95 <= p99 <= max(values)
        # Bucket interpolation: p50 lands within a bucket of the true median.
        assert p50 == pytest.approx(0.01, rel=1.0)

    def test_overflow_rank_returns_max(self):
        histogram = Histogram()
        histogram.observe(0.001)
        histogram.observe(1e9)  # +Inf overflow bucket
        assert histogram.quantile(0.99) == pytest.approx(1e9)

    def test_as_dict_surfaces_derived_quantiles(self, registry):
        for value in (0.001, 0.002, 0.004):
            registry.observe("h", value)
        derived = registry.histogram("h")["derived"]
        assert derived["p50"] <= derived["p95"] <= derived["p99"]
        assert 0.001 <= derived["p50"] <= 0.004


class TestPrometheusConformance:
    def test_inf_bucket_equals_count(self, registry):
        for value in (0.0001, 0.002, 5.0, 1e6):
            registry.observe("h", value)
        text = registry.expose_text()
        inf_line = next(
            line for line in text.splitlines()
            if line.startswith('flexpath_h_bucket{le="+Inf"}')
        )
        assert inf_line.endswith(" 4")
        assert "flexpath_h_count 4" in text

    def test_sum_and_count_agree_with_as_dict(self, registry):
        values = (0.001, 0.003, 0.007)
        for value in values:
            registry.observe("lat", value)
        registry.inc("hits", 5)
        snapshot = registry.as_dict()
        text = registry.expose_text()
        count_line = next(
            line for line in text.splitlines()
            if line.startswith("flexpath_lat_count")
        )
        sum_line = next(
            line for line in text.splitlines()
            if line.startswith("flexpath_lat_sum")
        )
        assert int(count_line.split()[1]) == (
            snapshot["histograms"]["lat"]["count"]
        )
        assert float(sum_line.split()[1]) == pytest.approx(
            snapshot["histograms"]["lat"]["sum"]
        )
        assert "flexpath_hits 5" in text

    def test_every_histogram_bucket_series_is_cumulative(self, registry):
        for i in range(30):
            registry.observe("h", 0.0001 * (2 ** (i % 10)))
        lines = [
            line for line in registry.expose_text().splitlines()
            if line.startswith("flexpath_h_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 30
        assert len(lines) == len(BUCKET_BOUNDS) + 1  # every bound + +Inf

    def test_sanitization_collisions_stay_distinct(self, registry):
        registry.inc("a.b", 1)
        registry.inc("a-b", 2)
        registry.inc("a_b", 3)
        text = registry.expose_text()
        # Suffixes follow raw-name sort order: "a-b" < "a.b" < "a_b".
        assert "flexpath_a_b 2" in text
        assert "flexpath_a_b_2 1" in text
        assert "flexpath_a_b_3 3" in text
        names = [
            line.split(" ", 1)[0] for line in text.splitlines()
            if not line.startswith("#")
        ]
        assert len(names) == len(set(names))

    def test_collision_suffixes_span_metric_kinds(self, registry):
        registry.inc("q.x", 1)
        registry.set_gauge("q-x", 7)
        text = registry.expose_text()
        assert "# TYPE flexpath_q_x counter" in text
        assert "# TYPE flexpath_q_x_2 gauge" in text


class TestExposeDuringRecording:
    def test_concurrent_observe_during_expose(self, registry):
        """expose_text snapshots under the lock and formats outside it, so
        recorders never see a torn exposition nor a stalled lock."""
        stop = threading.Event()
        errors = []

        def recorder():
            i = 0
            while not stop.is_set():
                registry.inc("hits")
                registry.observe("lat", 0.0001 * (1 + i % 64))
                registry.set_gauge("g", i)
                i += 1

        def exposer():
            try:
                for _ in range(200):
                    text = registry.expose_text()
                    lines = [
                        line for line in text.splitlines()
                        if line.startswith("flexpath_lat_bucket")
                    ]
                    counts = [
                        int(line.rsplit(" ", 1)[1]) for line in lines
                    ]
                    assert counts == sorted(counts)
                    if lines:
                        count_line = next(
                            line for line in text.splitlines()
                            if line.startswith("flexpath_lat_count")
                        )
                        assert counts[-1] == int(count_line.split()[1])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=recorder) for _ in range(3)]
        expose_thread = threading.Thread(target=exposer)
        for thread in threads:
            thread.start()
        expose_thread.start()
        expose_thread.join()
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors
