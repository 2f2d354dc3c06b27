"""The embedded observability HTTP endpoint."""

import json
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.engine import Engine
from repro.obs.http import ObservabilityServer
from repro.obs.metrics import REGISTRY
from tests.conftest import LIBRARY_XML


@pytest.fixture()
def engine():
    return Engine.from_xml(LIBRARY_XML)


@pytest.fixture()
def server(engine):
    server = engine.serve_metrics()
    yield server
    server.stop()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


class TestRoutes:
    def test_healthz(self, server):
        status, _, body = _get(server, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_metrics_is_prometheus_text(self, engine, server):
        engine.query("//article[./title]", k=3)
        status, headers, body = _get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "flexpath_query_count" in body
        assert 'le="+Inf"' in body

    def test_metrics_json_mirrors_the_registry(self, engine, server):
        engine.query("//article[./title]", k=3)
        status, headers, body = _get(server, "/metrics.json")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert set(payload) == {"counters", "gauges", "histograms", "derived"}
        assert payload["counters"]["query.count"] >= 1

    def test_statusz_snapshot(self, engine, server):
        sink = SimpleNamespace(export=[].append)
        engine.configure_tracing(sink, sample_rate=0.5)
        engine.query("//article[./title]", k=3)
        _, _, body = _get(server, "/statusz")
        status = json.loads(body)
        assert status["backend"]["kind"] == "InMemoryBackend"
        assert status["version"] == engine.backend.version
        assert set(status["caches"]) >= {"plan_cache", "eval_cache",
                                         "result_cache"}
        assert "session_pool" not in status
        assert status["tracing"]["configured"] is True
        assert status["tracing"]["sample_rate"] == 0.5
        assert isinstance(status["slow_queries"], list)
        assert status["uptime_seconds"] >= 0

    def test_unknown_path_is_404_with_route_list(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read().decode())
        assert "/metrics" in payload["routes"]

    def test_query_string_is_ignored_for_routing(self, server):
        status, _, _ = _get(server, "/healthz?probe=1")
        assert status == 200


class TestLifecycle:
    def test_serve_metrics_is_idempotent(self, engine):
        first = engine.serve_metrics()
        try:
            assert engine.serve_metrics() is first
            assert engine.observability_server is first
            assert first.running
        finally:
            first.stop()
        assert not first.running

    def test_ephemeral_port_is_bound(self, server):
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")

    def test_context_manager_starts_and_stops(self, engine):
        with ObservabilityServer(engine) as server:
            status, _, _ = _get(server, "/healthz")
            assert status == 200
        assert not server.running

    def test_scrape_while_metrics_disabled_still_serves(self, engine, server):
        REGISTRY.enabled = False
        try:
            _, _, body = _get(server, "/statusz")
            assert json.loads(body)["metrics_enabled"] is False
            status, _, _ = _get(server, "/metrics")
            assert status == 200
        finally:
            REGISTRY.enabled = True
