"""The artifact store: one memory LRU over the result cache.

Pins the policy every artifact namespace shares — LRU eviction by
entry count and pickled bytes, write-through to the disk tier,
per-namespace memory-tier stats, ``get_or_build`` building once — the
entry's digest slot (computed once per resident value, reset by a
replacing put, dropped by eviction) and the install hook's contract:
swapping the disk tier keeps the warm memory tier, and a resident
value reaches a newly installed tier.
"""

import pytest

from repro.core import profiler
from repro.engine import store as store_mod
from repro.engine.cache import CacheKey, CacheMiss, ResultCache, result_digest
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


class TestDigestSlot:
    """``digest`` is ``result_digest`` of the value, memoised on the
    resident entry that holds it."""

    @pytest.fixture
    def digested(self, monkeypatch):
        """The values the store computes a digest of, in order."""
        values = []

        def counting(value):
            values.append(value)
            return result_digest(value)

        monkeypatch.setattr(store_mod, "result_digest", counting)
        return values

    def test_digest_is_computed_once_per_resident_value(self, digested):
        store = ArtifactStore()
        value = {"answer": [1, 2.5], "name": "x"}
        store.put(_key("a"), value)
        assert digested == []  # admission does not digest
        for _ in range(3):
            got = store.get(_key("a"))
            assert store.digest(_key("a"), got) == result_digest(value)
        assert digested == [value]

    def test_replacing_put_resets_the_digest(self, digested):
        store = ArtifactStore()
        store.put(_key("a"), {"v": 1})
        before = store.digest(_key("a"), store.get(_key("a")))
        store.put(_key("a"), {"v": 2})
        after = store.digest(_key("a"), store.get(_key("a")))
        assert after == result_digest({"v": 2}) != before
        assert digested == [{"v": 1}, {"v": 2}]

    def test_eviction_drops_the_digest(self, digested):
        store = ArtifactStore(max_entries=1)
        value = {"v": 1}
        store.put(_key("a"), value)
        store.digest(_key("a"), value)
        store.put(_key("b"), {"v": 2})  # evicts a, and its digest
        # Not resident: digested afresh each time, nothing kept.
        assert store.digest(_key("a"), value) == result_digest(value)
        assert store.digest(_key("a"), value) == result_digest(value)
        assert len(digested) == 3
        store.put(_key("a"), value)  # readmitted with an empty slot
        store.digest(_key("a"), value)
        store.digest(_key("a"), value)
        assert len(digested) == 4

    def test_a_value_the_entry_does_not_hold_is_not_memoised(self, digested):
        store = ArtifactStore()
        store.put(_key("a"), {"v": 1})
        other = {"v": 1}  # equal, but not the resident object
        assert store.digest(_key("a"), other) == result_digest(other)
        assert store.digest(_key("a"), other) == result_digest(other)
        assert len(digested) == 2

    def test_disk_tier_reads_are_digested_on_first_request(
        self, tmp_path, digested
    ):
        backing = ResultCache(tmp_path / "cache")
        key = _key("feed", "serve.advice")
        backing.put(key, {"answer": 42})
        store = ArtifactStore(backing=backing)
        got = store.get(key)  # admitted from the disk tier
        assert digested == []
        assert store.digest(key, got) == result_digest({"answer": 42})
        assert store.digest(key, store.get(key)) == result_digest(
            {"answer": 42}
        )
        assert digested == [{"answer": 42}]

    def test_digests_leave_stats_and_recency_alone(self, tmp_path):
        store = ArtifactStore(backing=ResultCache(tmp_path), max_entries=2)
        key = _key("cafe", "serve.advice")
        store.put(key, {"answer": 1})
        value = store.get(key)
        with pytest.raises(CacheMiss):
            store.get(_key("absent", "serve.advice"))
        for _ in range(3):
            store.digest(key, value)
        stats = store.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        rows = store.stats.as_json()["per_namespace"]
        assert rows["serve.advice"] == {"hits": 1, "misses": 1, "stores": 1}
        store.put(_key("b", "serve.advice"), 2)
        store.put(_key("c", "serve.advice"), 3)  # evicts the digested key
        assert store.digest(key, value) == result_digest(value)
        assert store.stats.evictions == 1


class TestSizing:
    def test_disk_tier_file_size_without_a_second_pickle(
        self, tmp_path, monkeypatch
    ):
        backing = ResultCache(tmp_path / "cache")
        store = ArtifactStore(backing=backing)
        written = _key("a", "sim.tape")
        read = _key("b", "sim.tape")
        backing.put(read, list(range(500)))

        def no_pickle(*args, **kwargs):
            raise AssertionError("admission pickled a disk-tier value")

        monkeypatch.setattr(store_mod.pickle, "dumps", no_pickle)
        store.put(written, list(range(1000)))
        store.get(read)
        assert store.resident_bytes == (
            backing.path_for(written).stat().st_size
            + backing.path_for(read).stat().st_size
        )

    def test_without_a_disk_tier_the_value_is_pickled(self):
        import pickle

        store = ArtifactStore()
        value = list(range(1000))
        store.put(_key("a"), value)
        assert store.resident_bytes == len(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )


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
