"""The ``query_end`` listener seam and its wiring into the entry points."""

import pytest

from repro import FleXPath
from repro.errors import FleXPathError, QueryTimeoutError
from repro.obs.events import LISTENERS, emit, off, on
from tests.conftest import LIBRARY_XML

ALL_ALGORITHMS = ("dpo", "sso", "hybrid", "naive", "ir-first")

#: Every ``query_end`` payload carries exactly these keys.
PAYLOAD_KEYS = {
    "query", "k", "algorithm", "scheme", "seconds", "levels_evaluated",
    "relaxations_used", "answers", "result", "trace", "cached", "version",
    "deadline_ms", "outcome",
}


pytestmark = pytest.mark.usefixtures("clean_observability")


@pytest.fixture()
def engine():
    return FleXPath.from_xml(LIBRARY_XML)


class TestEventHub:
    """``on``/``off``/``emit`` over the module's one listener list."""

    def test_starts_inactive(self):
        assert LISTENERS == []

    def test_on_activates_off_deactivates(self):
        listener = on("query_end", lambda payload: None)
        assert LISTENERS == [listener]
        off("query_end", listener)
        assert LISTENERS == []

    def test_unknown_event_raises(self):
        for name in ("query_start", "cache_hit", "wal_append", "query_done"):
            with pytest.raises(FleXPathError, match="unknown event"):
                on(name, lambda payload: None)
            with pytest.raises(FleXPathError, match="unknown event"):
                off(name, lambda payload: None)
        assert LISTENERS == []

    def test_non_callable_listener_raises(self):
        with pytest.raises(FleXPathError, match="not callable"):
            on("query_end", "not a function")

    def test_off_unknown_listener_is_ignored(self):
        off("query_end", lambda payload: None)
        assert LISTENERS == []

    def test_emit_delivers_in_subscription_order(self, engine):
        calls = []
        on("query_end", lambda payload: calls.append("first"))
        on("query_end", lambda payload: calls.append("second"))
        emit({})
        assert calls == ["first", "second"]
        engine.query("//article", k=2)
        assert calls == ["first", "second"] * 2

    def test_listener_exceptions_propagate(self, engine):
        def broken(payload):
            raise RuntimeError("boom")

        on("query_end", broken)
        with pytest.raises(RuntimeError, match="boom"):
            engine.query("//article", k=2)
        with pytest.raises(RuntimeError, match="boom"):
            engine.exact("//article")


class TestQueryEvents:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_exactly_one_query_end_per_query(self, engine, algorithm):
        """One ``query_end`` per ``FleXPath.query`` call, whatever the
        algorithm."""
        events = []
        on("query_end", events.append)
        result = engine.query(
            "//article[./section/paragraph]", k=3, algorithm=algorithm
        )
        assert len(events) == 1
        payload = events[0]
        assert set(payload) == PAYLOAD_KEYS
        assert payload["algorithm"] == result.algorithm
        assert payload["answers"] == len(result.answers)
        assert payload["seconds"] >= 0.0
        assert payload["result"] is result
        assert payload["outcome"] == "ok"

    def test_off_stops_delivery(self, engine):
        events = []
        on("query_end", events.append)
        engine.query("//article", k=2)
        off("query_end", events.append)
        engine.query("//article", k=2)
        assert len(events) == 1

    def test_exact_emits_query_end(self, engine):
        events = []
        on("query_end", events.append)
        nodes = engine.exact("//section")
        assert len(events) == 1
        assert set(events[0]) == PAYLOAD_KEYS
        assert events[0]["algorithm"] == "exact"
        assert events[0]["answers"] == len(nodes)

    def test_traced_query_payload_carries_the_trace(self, engine):
        events = []
        on("query_end", events.append)
        trace = engine.query("//article", k=2, trace=True)
        assert events[0]["trace"] is trace

    def test_a_timed_out_query_ends_once(self, engine):
        events = []
        on("query_end", events.append)
        with pytest.raises(QueryTimeoutError):
            engine.query("//article[./section]", k=2, deadline_ms=1e-6)
        (payload,) = events
        assert set(payload) == PAYLOAD_KEYS
        assert payload["outcome"] == "timeout"
        assert payload["result"] is None
        assert payload["answers"] is None
        assert payload["deadline_ms"] == 1e-6

    def test_a_query_that_fails_to_parse_never_ends(self, engine):
        events = []
        on("query_end", events.append)
        with pytest.raises(FleXPathError):
            engine.query("//article[", k=2)
        assert events == []
