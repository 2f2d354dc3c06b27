"""The one BoundedLRU, exercised through both of its named uses."""

import pytest

from repro import PlanCache, ResultCache
from repro.cache import BoundedLRU
from repro.cache import ResultCache as ResultCacheFromModule
from repro.compiled import PlanCache as PlanCacheFromModule
from repro.obs.events import HUB
from repro.obs.metrics import REGISTRY

INFO_SCHEMA = {
    "entries", "max_entries", "hits", "misses", "evictions", "invalidations",
}


@pytest.fixture(autouse=True)
def clean_observability():
    REGISTRY.reset()
    HUB.clear()
    yield
    REGISTRY.reset()
    HUB.clear()


def _counter(name):
    return REGISTRY.as_dict()["counters"].get(name, 0)


def _gauge(name):
    return REGISTRY.as_dict()["gauges"].get(name)


def test_exported_classes_are_the_module_classes():
    assert ResultCache is ResultCacheFromModule
    assert PlanCache is PlanCacheFromModule
    assert issubclass(ResultCache, BoundedLRU)
    assert issubclass(PlanCache, BoundedLRU)


@pytest.mark.parametrize(
    "cache_cls, name, default_bound",
    [(ResultCache, "result", 128), (PlanCache, "plan", 256)],
)
class TestBoundedLRU:
    def test_default_and_explicit_bounds(self, cache_cls, name, default_bound):
        assert cache_cls().max_entries == default_bound
        assert cache_cls(None).max_entries == default_bound
        assert cache_cls(max_entries=3).max_entries == 3
        with pytest.raises(ValueError):
            cache_cls(max_entries=0)

    def test_lru_order_and_eviction(self, cache_cls, name, default_bound):
        cache = cache_cls(max_entries=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        cache.get("a", 0)  # refresh: b becomes least recently used
        cache.put("c", 0, 3)
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == 1
        assert cache.get("c", 0) == 3
        assert cache.evictions == 1
        assert _counter("%s_cache.evictions" % name) == 1
        assert _gauge("%s_cache.size" % name) == 2

    def test_overwrite_refreshes_without_evicting(
            self, cache_cls, name, default_bound):
        cache = cache_cls(max_entries=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        cache.put("a", 0, 10)  # a is now most recently used
        cache.put("c", 0, 3)
        assert cache.evictions == 1
        assert cache.get("a", 0) == 10
        assert cache.get("b", 0) is None

    def test_version_fence(self, cache_cls, name, default_bound):
        cache = cache_cls()
        cache.put("a", 1, "stale")
        assert cache.get("a", 2) is None  # another version never reads it
        assert cache.get("a", 1) == "stale"
        cache.put("a", 2, "fresh")  # replaces in place: no dead entry kept
        assert len(cache) == 1
        assert cache.get("a", 1) is None
        assert cache.get("a", 2) == "fresh"
        assert (cache.hits, cache.misses) == (2, 2)

    def test_counters_info_and_registry(self, cache_cls, name, default_bound):
        cache = cache_cls()
        cache.get("missing", 0)
        cache.put("a", 0, 1)
        cache.get("a", 0)
        info = cache.info()
        assert set(info) == INFO_SCHEMA
        assert info == {
            "entries": 1, "max_entries": default_bound, "hits": 1,
            "misses": 1, "evictions": 0, "invalidations": 0,
        }
        assert _counter("%s_cache.hits" % name) == 1
        assert _counter("%s_cache.misses" % name) == 1

    def test_invalidate_counts_once_and_only_when_nonempty(
            self, cache_cls, name, default_bound):
        cache = cache_cls()
        cache.invalidate()
        assert cache.invalidations == 0
        assert _counter("%s_cache.invalidations" % name) == 0
        cache.put("a", 0, 1)
        cache.invalidate()
        assert cache.invalidations == 1
        assert len(cache) == 0
        assert _counter("%s_cache.invalidations" % name) == 1
        assert _gauge("%s_cache.size" % name) == 0

    def test_event_payloads(self, cache_cls, name, default_bound):
        events = []
        HUB.on("cache_hit", lambda payload: events.append(("hit", payload)))
        HUB.on("cache_miss", lambda payload: events.append(("miss", payload)))
        cache = cache_cls()
        cache.get("k", 0)
        cache.put("k", 0, 1)
        cache.get("k", 0)
        payload = {"engine": name, "cache": name}
        assert events == [("miss", payload), ("hit", payload)]

    def test_len_and_repr_hold_the_lock(self, cache_cls, name, default_bound):
        # Regression: __len__/__repr__ used to read _entries without the
        # mutex; observe the lock directly to pin the discipline down.
        cache = cache_cls(max_entries=3)
        cache.put("a", 0, 1)

        class SpyLock:
            def __init__(self, inner):
                self.inner = inner
                self.entered = 0

            def __enter__(self):
                self.entered += 1
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        spy = SpyLock(cache._lock)
        cache._lock = spy
        assert len(cache) == 1
        assert spy.entered == 1
        assert repr(cache) == "%s(entries=1, max_entries=3)" % cache_cls.__name__
        assert spy.entered == 2
