"""The built-in slow-query log — the stock ``query_end`` listener.

A served FleXPath needs to answer "which queries are hurting us?" without
anyone having attached a tracer in advance.  :class:`SlowQueryLog`
subscribes to ``query_end`` and emits one structured :mod:`logging` record
(logger ``repro.slowlog``) whenever a query's wall time crosses a
configurable ``slow_ms`` threshold.  The record's message carries the
headline facts; the machine-readable payload rides on the record as the
``flexpath`` attribute, so a JSON log formatter can serialize it whole::

    {"query": "//item[./description]", "algorithm": "Hybrid",
     "scheme": "structure-first", "k": 10, "seconds": 0.213,
     "levels_evaluated": 3, "relaxations_used": 2, "answers": 10,
     "cached": false, "version": 12, "deadline_ms": null,
     "outcome": "ok",
     "phases": {...}}          # phases present only for traced queries

``cached`` flags result-cache hits that were *still* slow (a symptom of
answer materialization cost, not evaluation), ``version`` pins the corpus
version the query saw, and ``deadline_ms`` / ``outcome`` ("ok",
"timeout", "cancelled") record how the budgeted query ended — a timeout
is logged at the deadline it burned.

Each instance also retains its most recent details in a bounded ring
buffer (:meth:`recent`), which is what the ``/statusz`` page of the
embedded observability endpoint renders.

Nothing is installed by default — the entry points' no-listener fast path
stays intact until :func:`enable_slow_query_log` is called (or the CLI is
run with ``--slow-ms``).
"""

from __future__ import annotations

import logging
from collections import deque
from threading import Lock

from repro.obs.events import off, on

logger = logging.getLogger("repro.slowlog")

#: Slow-query details each instance retains for :meth:`SlowQueryLog.recent`.
RECENT_CAPACITY = 32


class SlowQueryLog:
    """Logs queries slower than ``slow_ms`` milliseconds.

    One instance subscribes to ``query_end`` via :meth:`install`;
    :meth:`uninstall` detaches it.  ``slow_ms`` may be adjusted on a live
    instance.
    """

    def __init__(self, slow_ms=100.0):
        self.slow_ms = slow_ms
        self._installed = False
        self._recent = deque(maxlen=RECENT_CAPACITY)
        self._recent_lock = Lock()

    def install(self):
        """Subscribe to ``query_end``; idempotent."""
        if not self._installed:
            on("query_end", self._on_query_end)
            self._installed = True
        return self

    def uninstall(self):
        """Unsubscribe; idempotent."""
        if self._installed:
            off("query_end", self._on_query_end)
            self._installed = False

    @property
    def installed(self):
        return self._installed

    def recent(self):
        """The retained slow-query details, most recent last (a copy)."""
        with self._recent_lock:
            return list(self._recent)

    def _on_query_end(self, payload):
        seconds = payload.get("seconds", 0.0)
        if seconds * 1000.0 < self.slow_ms:
            return
        detail = {
            "query": payload.get("query"),
            "algorithm": payload.get("algorithm"),
            "scheme": payload.get("scheme"),
            "k": payload.get("k"),
            "seconds": seconds,
            "levels_evaluated": payload.get("levels_evaluated"),
            "relaxations_used": payload.get("relaxations_used"),
            "answers": payload.get("answers"),
            "cached": payload.get("cached", False),
            "version": payload.get("version"),
            "deadline_ms": payload.get("deadline_ms"),
            "outcome": payload.get("outcome", "ok"),
        }
        trace = payload.get("trace")
        if trace is not None:
            detail["phases"] = trace.phase_aggregates()
        with self._recent_lock:
            self._recent.append(detail)
        logger.warning(
            "slow query (%.1f ms, %s/%s, %s level(s), outcome=%s): %s",
            seconds * 1000.0,
            detail["algorithm"],
            detail["scheme"],
            detail["levels_evaluated"],
            detail["outcome"],
            detail["query"],
            extra={"flexpath": detail},
        )


#: The module-level instance enable/disable manage.
_DEFAULT_LOG = SlowQueryLog()


def enable_slow_query_log(slow_ms=100.0):
    """Install the built-in slow-query log with the given threshold."""
    _DEFAULT_LOG.slow_ms = slow_ms
    return _DEFAULT_LOG.install()


def disable_slow_query_log():
    """Uninstall the built-in slow-query log."""
    _DEFAULT_LOG.uninstall()


def recent_slow_queries():
    """Details the built-in slow-query log retained, most recent last."""
    return _DEFAULT_LOG.recent()
