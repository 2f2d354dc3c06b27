"""The built-in slow-query log."""

import logging

import pytest

from repro import FleXPath
from repro.obs import slowlog as slowlog_module
from repro.obs.events import LISTENERS
from repro.obs.slowlog import (
    SlowQueryLog,
    disable_slow_query_log,
    enable_slow_query_log,
)
from tests.conftest import LIBRARY_XML


pytestmark = pytest.mark.usefixtures("clean_observability")


@pytest.fixture()
def engine():
    return FleXPath.from_xml(LIBRARY_XML)


class TestSlowQueryLog:
    def test_threshold_zero_logs_every_query(self, engine, caplog):
        slowlog = SlowQueryLog(slow_ms=0.0).install()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                engine.query("//article[./section]", k=3)
        finally:
            slowlog.uninstall()
        assert len(caplog.records) == 1
        record = caplog.records[0]
        assert "slow query" in record.message
        detail = record.flexpath
        assert detail["query"] == "//article[./section]"
        assert detail["algorithm"] == "Hybrid"
        assert detail["scheme"] == "structure-first"
        assert detail["k"] == 3
        assert detail["seconds"] >= 0.0
        assert detail["levels_evaluated"] >= 1

    def test_high_threshold_stays_silent(self, engine, caplog):
        slowlog = SlowQueryLog(slow_ms=60_000.0).install()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                engine.query("//article", k=2)
        finally:
            slowlog.uninstall()
        assert caplog.records == []

    def test_uninstall_stops_logging(self, engine, caplog):
        slowlog = SlowQueryLog(slow_ms=0.0).install()
        slowlog.uninstall()
        with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
            engine.query("//article", k=2)
        assert caplog.records == []
        assert not slowlog.installed
        assert not LISTENERS

    def test_install_is_idempotent(self, engine, caplog):
        slowlog = SlowQueryLog(slow_ms=0.0)
        slowlog.install()
        slowlog.install()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                engine.query("//article", k=2)
        finally:
            slowlog.uninstall()
        assert len(caplog.records) == 1

    def test_traced_query_detail_includes_phases(self, engine, caplog):
        slowlog = SlowQueryLog(slow_ms=0.0).install()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                engine.query("//article[./section]", k=3, trace=True)
        finally:
            slowlog.uninstall()
        assert caplog.records[0].flexpath["phases"]

    def test_module_level_enable_disable(self, engine, caplog):
        enable_slow_query_log(slow_ms=0.0)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                engine.query("//article", k=2)
        finally:
            disable_slow_query_log()
        assert len(caplog.records) == 1
        assert not LISTENERS


class TestPayloadSchema:
    """The ``flexpath`` record attribute is a stable machine-readable schema."""

    EXPECTED_KEYS = {
        "query", "algorithm", "scheme", "k", "seconds", "levels_evaluated",
        "relaxations_used", "answers", "cached", "version", "deadline_ms",
        "outcome",
    }

    def _one_detail(self, engine, caplog, **kwargs):
        slowlog = SlowQueryLog(slow_ms=0.0).install()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                engine.query("//article[./section]", k=3, **kwargs)
        finally:
            slowlog.uninstall()
        return caplog.records[-1].flexpath

    def test_detail_carries_the_full_schema(self, engine, caplog):
        detail = self._one_detail(engine, caplog)
        assert self.EXPECTED_KEYS <= set(detail)
        assert detail["cached"] is False
        assert detail["version"] == engine.backend.version
        assert detail["deadline_ms"] is None
        assert detail["outcome"] == "ok"

    def test_cached_hit_is_flagged(self, engine, caplog):
        engine.query("//article[./section]", k=3)  # warm the result cache
        detail = self._one_detail(engine, caplog)
        assert detail["cached"] is True
        assert detail["outcome"] == "ok"

    def test_deadline_is_recorded(self, engine, caplog):
        detail = self._one_detail(engine, caplog, deadline_ms=60_000)
        assert detail["deadline_ms"] == 60_000
        assert detail["outcome"] == "ok"

    def test_timeout_outcome_is_logged(self, caplog):
        from tests.spec.datasets import article_corpus
        from repro.errors import QueryTimeoutError

        engine = FleXPath(article_corpus(articles=40, seed=5), cache=False)
        slowlog = SlowQueryLog(slow_ms=0.0).install()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                with pytest.raises(QueryTimeoutError):
                    engine.query(
                        '//article[./section[./paragraph and .contains('
                        '"xml" and "query")]]',
                        k=10,
                        deadline_ms=0.0001,
                    )
        finally:
            slowlog.uninstall()
        detail = caplog.records[-1].flexpath
        assert detail["outcome"] == "timeout"
        assert detail["answers"] is None
        assert detail["deadline_ms"] == 0.0001
        assert detail["seconds"] > 0

    def test_recent_ring_buffer_retains_details(self, engine, caplog,
                                                monkeypatch):
        monkeypatch.setattr(slowlog_module, "RECENT_CAPACITY", 2)
        slowlog = SlowQueryLog(slow_ms=0.0).install()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                for query in ("//article", "//section", "//paragraph"):
                    engine.query(query, k=2)
        finally:
            slowlog.uninstall()
        recent = slowlog.recent()
        assert [d["query"] for d in recent] == ["//section", "//paragraph"]

    def test_module_level_recent(self, engine, caplog):
        from repro.obs.slowlog import recent_slow_queries

        enable_slow_query_log(slow_ms=0.0)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.slowlog"):
                engine.query("//article", k=2)
        finally:
            disable_slow_query_log()
        assert any(
            d["query"] == "//article" for d in recent_slow_queries()
        )

    def test_detail_round_trips_through_json(self, engine, caplog):
        import json

        detail = self._one_detail(engine, caplog)
        assert json.loads(json.dumps(detail))["query"] == (
            "//article[./section]"
        )
