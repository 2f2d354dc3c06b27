"""The Session serving layer: lifecycle, deadlines, cancellation."""

import threading

import pytest

from repro.engine import Engine
from repro.errors import (
    FleXPathError,
    QueryBatchError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.obs.events import HUB
from repro.obs.metrics import REGISTRY
from repro.session import QueryControl
from tests.conftest import LIBRARY_XML

QUERY = '//article[./section[./paragraph and .contains("streaming")]]'


@pytest.fixture(autouse=True)
def clean_observability():
    REGISTRY.reset()
    HUB.clear()
    yield
    REGISTRY.reset()
    HUB.clear()


def _counter(name):
    return REGISTRY.as_dict()["counters"].get(name, 0)


@pytest.fixture()
def engine():
    return Engine.from_xml(LIBRARY_XML)


class TestQueryControl:
    def test_no_deadline_never_times_out(self):
        control = QueryControl()
        for _ in range(5):
            control.check()
        assert control.checks == 5
        assert control.remaining_ms() is None

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(FleXPathError):
            QueryControl(deadline_ms=0)
        with pytest.raises(FleXPathError):
            QueryControl(deadline_ms=-5)

    def test_expired_deadline_raises(self):
        control = QueryControl(deadline_ms=1e-6)
        with pytest.raises(QueryTimeoutError):
            control.check()

    def test_cancel_raises_on_next_check(self):
        control = QueryControl(deadline_ms=60_000)
        control.check()
        control.cancel()
        assert control.cancelled
        with pytest.raises(QueryCancelledError):
            control.check()

    def test_remaining_ms_counts_down(self):
        control = QueryControl(deadline_ms=60_000)
        assert 0 < control.remaining_ms() <= 60_000


class TestSessionLifecycle:
    def test_connect_returns_a_working_session(self, engine):
        with engine.connect() as session:
            result = session.query(QUERY, k=3)
        assert result.answers

    def test_connect_returns_independent_sessions(self, engine):
        first = engine.connect()
        second = engine.connect()
        assert first is not second
        assert first.engine is engine
        first.close()
        assert not second.closed
        assert second.query(QUERY, k=2).answers

    def test_close_is_idempotent_and_closed_sessions_refuse(self, engine):
        session = engine.connect()
        session.close()
        session.close()
        assert session.closed
        with pytest.raises(FleXPathError):
            session.query(QUERY)

    def test_session_counts_queries(self, engine):
        with engine.connect() as session:
            session.query(QUERY, k=2)
            session.query("//article", k=2)
            assert session.queries == 2

    def test_default_algorithm_is_hybrid(self, engine):
        with engine.connect() as session:
            result = session.query(QUERY, k=2)
        assert result.algorithm == "Hybrid"

    def test_unknown_algorithm_is_an_error(self, engine):
        with engine.connect() as session:
            with pytest.raises(FleXPathError, match="unknown algorithm"):
                session.query(QUERY, algorithm="nope")


class TestDeadline:
    def test_tight_deadline_times_out(self, engine):
        with engine.connect() as session:
            with pytest.raises(QueryTimeoutError):
                session.query(QUERY, deadline_ms=1e-6)
        assert _counter("query.timeouts") == 1
        assert _counter("query.errors") == 1

    def test_generous_deadline_succeeds(self, engine):
        with engine.connect() as session:
            result = session.query(QUERY, k=3, deadline_ms=60_000)
        assert result.answers
        assert _counter("query.timeouts") == 0

    def test_engine_query_forwards_deadline(self, engine):
        with pytest.raises(QueryTimeoutError):
            engine.query(QUERY, deadline_ms=1e-6)

    def test_deadline_applies_per_query_in_batch(self, engine):
        with pytest.raises(QueryBatchError) as info:
            engine.query_many(
                [QUERY, "//article"], workers=2, deadline_ms=1e-6
            )
        assert len(info.value.errors) == 2
        for _, exc in info.value.errors:
            assert isinstance(exc, QueryTimeoutError)


class TestCancellation:
    def test_cancel_before_evaluation_aborts(self, engine):
        session = engine.connect()
        # query_start fires after the control is armed, so cancelling from
        # the event listener aborts at the first checkpoint.
        HUB.on("query_start", lambda payload: session.cancel())
        with pytest.raises(QueryCancelledError):
            session.query(QUERY, deadline_ms=60_000)
        session.close()
        assert _counter("query.cancellations") == 1
        assert _counter("query.errors") == 1

    def test_cancel_from_another_thread(self, engine):
        session = engine.connect()
        release = threading.Event()

        def cancel_on_start(payload):
            session.cancel()
            release.set()

        HUB.on("query_start", cancel_on_start)
        with pytest.raises(QueryCancelledError):
            session.query(QUERY, deadline_ms=60_000)
        assert release.is_set()
        session.close()

    def test_cancel_without_inflight_query_is_a_noop(self, engine):
        session = engine.connect()
        session.cancel()
        result = session.query(QUERY, k=2)
        assert result.answers
        session.close()


class TestEngineSurface:
    def test_cache_info_schema_is_consistent(self, engine):
        engine.query(QUERY, k=3)
        info = engine.cache_info()
        assert info["enabled"] is True
        schema = {
            "entries", "max_entries", "hits", "misses",
            "evictions", "invalidations",
        }
        for tier in ("plan_cache", "eval_cache", "result_cache"):
            assert set(info[tier]) == schema, tier

    def test_cache_info_with_caching_off(self):
        engine = Engine.from_xml(LIBRARY_XML, cache=False)
        info = engine.cache_info()
        assert info["enabled"] is False
        assert info["result_cache"] is None

    def test_sessions_share_the_result_cache(self, engine):
        with engine.connect() as session:
            first = session.query(QUERY, k=3)
        with engine.connect() as session:
            second = session.query(QUERY, k=3)
        assert second is first

    def test_traced_query_through_session(self, engine):
        with engine.connect() as session:
            trace = session.query(QUERY, k=3, trace=True)
        assert trace.result.answers
        assert trace.spans


class TestExceptionPaths:
    """A raising query propagates, is counted once, and leaves the engine
    serving."""

    def _raising_engine(self):
        engine = Engine.from_xml(LIBRARY_XML)

        class ExplodingStrategy:
            name = "exploding"

            def top_k(self, *args, **kwargs):
                raise RuntimeError("executor blew up")

        engine.algorithms["exploding"] = ExplodingStrategy()
        return engine

    def test_raising_queries_are_counted_and_do_not_poison_the_engine(self):
        engine = self._raising_engine()
        for _ in range(5):
            with pytest.raises(RuntimeError):
                engine.query(QUERY, algorithm="exploding")
        assert _counter("query.errors") == 5
        assert engine.query(QUERY, k=2).answers

    def test_raising_query_clears_the_inflight_control(self):
        engine = self._raising_engine()
        session = engine.connect()
        with pytest.raises(RuntimeError):
            session.query(QUERY, algorithm="exploding", deadline_ms=60_000)
        session.cancel()  # nothing in flight: must not poison the next query
        assert session.query(QUERY, k=2, deadline_ms=60_000).answers

    def test_timeout_path_counts_every_timeout(self, engine):
        for _ in range(3):
            with pytest.raises(QueryTimeoutError):
                engine.query(QUERY, deadline_ms=0.0001)
        assert _counter("query.timeouts") == 3
        assert _counter("query.errors") == 3

    def test_raising_strategy_under_concurrency(self):
        engine = self._raising_engine()
        errors = []

        def run(slot):
            try:
                with pytest.raises(RuntimeError):
                    engine.query(QUERY, algorithm="exploding")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert not any(thread.is_alive() for thread in threads)
        assert _counter("query.errors") == 8
