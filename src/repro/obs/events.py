"""The one listener seam: ``query_end``.

Each entry point that answers a query — :meth:`Session.query
<repro.session.Session.query>` (and so ``Engine.query``/``query_many``)
and ``Engine.exact`` — calls the ``query_end`` listeners once per call,
timeouts and cancellations included, with one dict payload
(:func:`repro.session.query_end_payload`: wall time, levels, answer count,
cache hit, deadline outcome, and the :class:`~repro.obs.QueryTrace` of a
traced call)::

    from repro.obs import on, off

    def watch(payload):
        print(payload["algorithm"], payload["seconds"])

    on("query_end", watch)
    ...
    off("query_end", watch)

Everything else a query, an ingest, a cache or the storage layer does is
counted by the metrics registry (:mod:`repro.obs.metrics`), the one place
to read it.  With nothing subscribed an entry point pays one truth test
of :data:`LISTENERS`.  Listeners run synchronously on the emitting
thread, in subscription order; a listener that raises propagates to the
caller (as in SQLAlchemy — a broken listener should be loud, not silently
unhooked).
"""

from __future__ import annotations

from repro.errors import FleXPathError

#: The ``query_end`` listeners, in subscription order.  Entry points test
#: it before building a payload.
LISTENERS = []


def _check(event):
    if event != "query_end":
        raise FleXPathError(
            "unknown event %r (the only event is 'query_end')" % (event,)
        )


def on(event, listener):
    """Subscribe ``listener(payload)`` to ``query_end``; returns it."""
    _check(event)
    if not callable(listener):
        raise FleXPathError("listener for %r is not callable" % event)
    LISTENERS.append(listener)
    return listener


def off(event, listener):
    """Unsubscribe a listener; unknown listeners are ignored."""
    _check(event)
    if listener in LISTENERS:
        LISTENERS.remove(listener)


def emit(payload):
    """Deliver one ``query_end`` payload to every listener, in order."""
    for listener in LISTENERS:
        listener(payload)
