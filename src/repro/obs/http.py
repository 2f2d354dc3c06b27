"""The embedded observability HTTP endpoint: ``/metrics`` and friends.

A served FleXPath process should be scrapeable without bolting on a web
framework, so :class:`ObservabilityServer` wraps the stdlib
:class:`~http.server.ThreadingHTTPServer` on a daemon thread and exposes
four read-only routes:

==================  ==========================================================
``/metrics``        Prometheus text exposition of the process registry
``/metrics.json``   the registry's JSON mirror (``MetricsRegistry.as_dict``)
``/healthz``        liveness: ``200 {"status": "ok"}`` while serving
``/statusz``        operational snapshot — backend kind / corpus version /
                    segment generation, all three cache tiers, tracing
                    config, recent slow queries
==================  ==========================================================

Start it with ``Engine.serve_metrics(port)`` (or the CLI's
``serve-metrics`` subcommand); ``port=0`` binds an ephemeral port and the
bound value is readable as :attr:`ObservabilityServer.port`.  Every
handler thread only *reads* engine state (the registry snapshots under
its own lock; ``describe``/``cache_info`` are already
thread-safe), so scrapes never contend with the query path beyond those
snapshot locks.  The server is deliberately loopback-by-default — expose
it beyond ``127.0.0.1`` only behind whatever fronting your deployment
already trusts.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import time

from repro.obs.metrics import REGISTRY
from repro.obs.slowlog import recent_slow_queries

#: Content type Prometheus scrapers expect for the text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes one scrape; the owning server rides on ``self.server.owner``."""

    # Served from a daemon thread per request (ThreadingHTTPServer); keep
    # request logging out of the application's stdout/stderr.
    def log_message(self, format, *args):
        pass

    def do_GET(self):
        owner = self.server.owner
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            self._respond(200, owner.metrics_text(), PROMETHEUS_CONTENT_TYPE)
        elif path == "/metrics.json":
            self._respond_json(200, owner.metrics_json())
        elif path == "/healthz":
            self._respond_json(200, {"status": "ok"})
        elif path == "/statusz":
            self._respond_json(200, owner.status())
        else:
            self._respond_json(
                404,
                {
                    "error": "unknown path %r" % path,
                    "routes": ["/metrics", "/metrics.json", "/healthz",
                               "/statusz"],
                },
            )

    def _respond_json(self, code, payload):
        body = json.dumps(payload, indent=2, sort_keys=True, default=str)
        self._respond(code, body + "\n", "application/json; charset=utf-8")

    def _respond(self, code, body, content_type):
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class ObservabilityServer:
    """The metrics/health/status endpoint for one :class:`~repro.engine.Engine`.

    Lifecycle: construct, :meth:`start` (binds and spawns the daemon
    serving thread), :meth:`stop` (shuts the listener down and joins the
    thread).  Safe to leave running for the process lifetime — the thread
    is a daemon, so it never blocks interpreter exit.
    """

    def __init__(self, engine, host="127.0.0.1", port=0):
        self._engine = engine
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.owner = self
        self._thread = None
        self._started_wall = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self):
        return self._httpd.server_address[0]

    @property
    def port(self):
        """The bound port (the ephemeral one when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self):
        return "http://%s:%d" % (self.host, self.port)

    @property
    def running(self):
        return self._thread is not None and self._thread.is_alive()

    def start(self):
        """Spawn the serving daemon thread; idempotent."""
        if self._thread is None:
            self._started_wall = time()
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="flexpath-obs-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self):
        """Shut the listener down and join the serving thread."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- route payloads ------------------------------------------------------

    def metrics_text(self):
        return REGISTRY.expose_text()

    def metrics_json(self):
        return REGISTRY.as_dict()

    def status(self):
        """The ``/statusz`` snapshot (JSON-safe)."""
        engine = self._engine
        sampler = engine.trace_sampler
        status = {
            "backend": engine.backend.describe(),
            "version": engine.backend.version,
            "caches": engine.cache_info(),
            "tracing": {
                "configured": engine.trace_sink is not None,
                "sink": (
                    repr(engine.trace_sink)
                    if engine.trace_sink is not None
                    else None
                ),
                "sample_rate": sampler.rate if sampler is not None else None,
            },
            "slow_queries": recent_slow_queries(),
            "metrics_enabled": REGISTRY.enabled,
            "shards": (
                engine.backend.shard_topology()
                if hasattr(engine.backend, "shard_topology")
                else None
            ),
            "uptime_seconds": (
                time() - self._started_wall
                if self._started_wall is not None
                else None
            ),
        }
        return status

    def __repr__(self):
        return "ObservabilityServer(%s, running=%s)" % (self.url, self.running)
