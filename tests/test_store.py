"""The artifact store: one memory LRU over the result cache.

Pins the policy every artifact namespace shares — LRU eviction by
entry count and pickled bytes, write-through to the disk tier,
per-namespace memory-tier stats, ``get_or_build`` building once — and
the install hook's contract: swapping the disk tier keeps the warm
memory tier, and a resident value reaches a newly installed tier.
"""

import pytest

from repro.core import profiler
from repro.engine.cache import CacheKey, CacheMiss, ResultCache
from repro.engine.store import (
    MEMORY_BUDGET_BYTES,
    ArtifactStore,
    install,
    process_store,
)


def _key(digest: str, namespace: str = "ns") -> CacheKey:
    return CacheKey(namespace, digest)


class TestPolicy:
    def test_lru_eviction_beyond_max_entries(self):
        store = ArtifactStore(max_entries=2)
        store.put(_key("a"), 1)
        store.put(_key("b"), 2)
        assert store.get(_key("a")) == 1  # refresh recency
        store.put(_key("c"), 3)  # evicts b, the least recent
        assert store.entries == 2
        assert store.stats.evictions == 1
        assert store.get(_key("a")) == 1
        assert store.get(_key("c")) == 3
        with pytest.raises(CacheMiss):
            store.get(_key("b"))

    def test_max_bytes_keeps_at_least_one_entry(self):
        store = ArtifactStore(max_entries=8, max_bytes=1)
        store.put(_key("a"), list(range(100)))
        store.put(_key("b"), list(range(100)))
        assert store.entries == 1  # over budget, but never empty
        assert store.stats.evictions == 1

    def test_backing_reads_are_promoted(self, tmp_path):
        backing = ResultCache(tmp_path / "cache")
        key = _key("deadbeef", "profile.tensor")
        backing.put(key, {"x": 1})
        store = ArtifactStore(backing=backing)
        assert store.get(key) == {"x": 1}
        assert store.entries == 1
        assert store.get(key) == {"x": 1}
        assert backing.stats.hits == 1  # the second get stayed in memory

    def test_write_through_and_per_namespace_stats(self, tmp_path):
        backing = ResultCache(tmp_path / "cache")
        store = ArtifactStore(backing=backing)
        key = _key("cafe", "serve.advice")
        store.put(key, {"answer": 42})
        assert backing.get(key) == {"answer": 42}
        assert store.get(key) == {"answer": 42}
        with pytest.raises(CacheMiss):
            store.get(_key("absent", "serve.advice"))
        rows = store.stats.as_json()["per_namespace"]
        assert rows["serve.advice"] == {"hits": 1, "misses": 1, "stores": 1}

    def test_get_or_build_builds_once(self, tmp_path):
        calls = []

        def build():
            calls.append(1)
            return "value"

        store = ArtifactStore(backing=ResultCache(tmp_path))
        key = _key("beef", "sim.tape")
        assert store.get_or_build(key, build) == "value"
        assert store.get_or_build(key, build) == "value"
        store.clear()  # a fresh process: only the disk tier remains
        assert store.get_or_build(key, build) == "value"
        assert calls == [1]


class TestInstall:
    def test_disk_tier_swap_keeps_the_memory_tier(self, tmp_path):
        store = process_store()
        key = _key("f00d", "profile.tensor")
        previous = install(ResultCache(tmp_path / "a"))
        try:
            store.put(key, "tensor")
            install(ResultCache(tmp_path / "b"))
            assert process_store() is store
            assert store.get(key) == "tensor"
            # The resident value reached the newly installed tier, so
            # other processes reading that root find it too.
            assert ResultCache(tmp_path / "b").get(key) == "tensor"
        finally:
            install(previous)
            store.clear()

    def test_store_install_replaces_and_restores(self):
        mine = ArtifactStore(max_entries=4)
        previous = profiler.set_tensor_cache(mine)
        try:
            assert process_store() is mine
        finally:
            assert profiler.set_tensor_cache(previous) is mine
        assert process_store() is previous

    def test_process_store_is_byte_bounded(self):
        assert process_store().max_bytes == MEMORY_BUDGET_BYTES
        assert MEMORY_BUDGET_BYTES <= 43 * 10**6
