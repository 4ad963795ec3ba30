"""Tests for the experiment engine: cache, registry, runner."""

import inspect
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
import pytest

from repro.core.targets import FINAL
from repro.engine import (
    CacheMiss,
    Experiment,
    ExperimentRunner,
    ResultCache,
    code_salt,
    experiment_names,
    get_experiment,
    param_digest,
    register,
    result_digest,
)
from repro.engine.cache import CacheKey, canonical
from repro.engine.planner import ArtifactSpec
from repro.engine.registry import resolve
from repro.workloads.snapshots import SnapshotConfig

TINY = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)


# ---------------------------------------------------------------------------
# A minimal experiment for runner-behaviour tests (module-level point
# function so worker processes can import it by reference).
# ---------------------------------------------------------------------------
def _double_point(value):
    if value == "boom":
        raise RuntimeError("boom")
    return value * 2


register(
    Experiment(
        name="test.double",
        title="doubles values (test fixture)",
        defaults=lambda: {"values": (1, 2, 3)},
        expand=lambda p: [{"value": v} for v in p["values"]],
        run_point=f"{__name__}:_double_point",
        aggregate=lambda results, p: list(results),
        format=str,
    )
)


def _study_function(reference: str):
    function = resolve(reference)
    assert inspect.isfunction(function), reference
    assert function.__module__ == reference.partition(":")[0], reference
    return function


@pytest.mark.parametrize(
    "name",
    [n for n in experiment_names() if get_experiment(n).run_point.startswith("repro.")],
)
def test_builtin_references_fit_their_points(name):
    """Each reference names a function defined in its ``repro`` module,
    every default point binds to the run point's signature and the plan
    hook returns planner specs: a renamed study parameter fails here,
    not as a ``TypeError`` inside a pool worker."""
    experiment = get_experiment(name)
    signature = inspect.signature(_study_function(experiment.run_point))
    plan_point = experiment.plan_point and _study_function(experiment.plan_point)
    for point in experiment.expand(experiment.defaults()):
        signature.bind(**point)
        if plan_point:
            specs = plan_point(point)
            assert specs and all(isinstance(s, ArtifactSpec) for s in specs)


class TestCanonical:
    def test_primitives_and_containers(self):
        assert canonical([1, 2]) == canonical((1, 2))
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})
        assert canonical(0.1) == ("float", "0.1")

    def test_dataclass_and_enum(self):
        from repro.core.entry import TargetRatio

        assert canonical(TINY) == canonical(
            SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)
        )
        assert canonical(TINY) != canonical(SnapshotConfig())
        assert canonical(TargetRatio.X2) != canonical(TargetRatio.X4)
        assert canonical(FINAL)[0] == "dataclass"

    def test_subclasses_keep_the_isinstance_semantics(self):
        # Only the exact builtin types take the fast table; subclasses
        # canonicalise exactly as the isinstance chain always has.
        class Level(IntEnum):
            LOW = 1

        @dataclass
        class Tagged(dict):
            tag: str = "t"

        assert canonical(Level.LOW) is Level.LOW
        tagged = Tagged(tag="x")
        tagged["ignored"] = 1
        assert canonical(tagged) == (
            "dataclass",
            Tagged.__qualname__,
            (("tag", "x"),),
        )
        assert canonical(True) is True
        assert canonical(None) is None
        assert canonical([1, (2.0, "s")]) == (
            "seq",
            (1, ("seq", (("float", "2.0"), "s"))),
        )

    def test_ndarray_by_content(self):
        a = np.arange(8, dtype=np.int64)
        assert canonical(a) == canonical(a.copy())
        assert canonical(a) != canonical(a.astype(np.int32))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical(object())


class TestDtypeNames:
    """``canonical`` memoises ``str(dtype)``; its output must stay the
    printed form byte for byte, or every digest over an array moves."""

    @pytest.mark.parametrize("code", sorted(set(np.typecodes["All"]) - {"O"}))
    @pytest.mark.parametrize("order", ["=", ">", "<"])
    def test_every_builtin_dtype_prints_as_str(self, code, order):
        array = np.zeros(2, dtype=np.dtype(code).newbyteorder(order))
        for _ in range(2):  # the first call fills the memo, the second reads it
            assert canonical(array)[1] == str(array.dtype)

    def test_equal_structs_that_print_differently_stay_apart(self):
        aligned = np.dtype([("a", "<i4")], align=True)
        packed = np.dtype([("a", "<i4")])
        assert aligned == packed and str(aligned) != str(packed)
        assert canonical(np.zeros(1, aligned))[1] == str(aligned)
        assert canonical(np.zeros(1, packed))[1] == str(packed)

    def test_pipeline_dtypes_print_as_str(self, monkeypatch):
        """Every dtype the pipeline canonicalises — a client histogram's
        request key, and the digests of a profile tensor, an entry
        state and a Fig. 6 heatmap — gets its ``str``."""
        from repro.analysis.compression_study import fig6_heatmap
        from repro.core.profiler import entry_state_tensor, profile_tensor
        from repro.engine import cache as cache_mod
        from repro.serve.advisor import request_cache_key
        from repro.serve.protocol import AdviceRequest

        seen = []
        dtype_name = cache_mod._dtype_name

        def recording(dtype):
            seen.append(dtype)
            return dtype_name(dtype)

        monkeypatch.setattr(cache_mod, "_dtype_name", recording)
        tensor = profile_tensor("356.sp", TINY)
        request_cache_key(AdviceRequest(histogram=tensor))
        result_digest(tensor)
        result_digest(entry_state_tensor("356.sp", TINY, 0))
        result_digest(fig6_heatmap("356.sp", 5, TINY))
        assert {str(dtype) for dtype in seen} >= {"int64", "float64", "int8", "bool"}
        for dtype in seen:
            assert dtype_name(dtype) == str(dtype)

    def test_param_digest_sensitivity(self):
        base = param_digest("e", {"x": 1}, "salt")
        assert base == param_digest("e", {"x": 1}, "salt")
        assert base != param_digest("e", {"x": 2}, "salt")
        assert base != param_digest("other", {"x": 1}, "salt")
        assert base != param_digest("e", {"x": 1}, "other-salt")

    def test_code_salt_tracks_modules(self):
        # Importing any module runs repro/__init__, so every closure
        # holds its eager imports (rng and units among them); roots in
        # different subpackages still reach different modules.
        assert code_salt(("repro.um.pages",)) == code_salt(("repro.um.pages",))
        assert code_salt(("repro.um.pages",)) != code_salt(("repro.gpusim.dram",))


class TestResultCache:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = CacheKey("exp", "abc123")
        with pytest.raises(CacheMiss):
            cache.get(key)
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = CacheKey("exp", "abc123")
        cache.put(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"not a pickle")
        with pytest.raises(CacheMiss):
            cache.get(key)
        assert not cache.path_for(key).exists()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(CacheKey("a", "k1"), 1)
        cache.put(CacheKey("b", "k2"), 2)
        assert cache.clear("a") == 1
        assert cache.clear() == 1

    def test_usage_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.usage().entries == 0
        cache.put(CacheKey("a", "k1"), list(range(100)))
        cache.put(CacheKey("a", "k2"), list(range(100)))
        cache.put(CacheKey("b", "k3"), "x")
        usage = cache.usage()
        assert usage.entries == 3
        assert set(usage.per_experiment) == {"a", "b"}
        assert usage.per_experiment["a"][0] == 2
        assert usage.bytes == sum(
            p.stat().st_size for p in cache.entries()
        )

    def test_lru_eviction_drops_oldest_first(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        keys = [CacheKey("exp", f"k{i}") for i in range(4)]
        for index, key in enumerate(keys):
            cache.put(key, bytes(2000))
            # deterministic, widely spaced mtimes (filesystem mtime
            # granularity would otherwise make ordering flaky)
            os.utime(cache.path_for(key), (1000 + index, 1000 + index))
        entry = cache.path_for(keys[0]).stat().st_size
        evicted = cache.evict(max_bytes=2 * entry)
        assert evicted == 2
        assert not cache.contains(keys[0]) and not cache.contains(keys[1])
        assert cache.contains(keys[2]) and cache.contains(keys[3])
        assert cache.stats.evictions == 2
        assert cache.usage().evictions == 2  # persisted across instances

    def test_get_refreshes_recency(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        keys = [CacheKey("exp", f"k{i}") for i in range(3)]
        for index, key in enumerate(keys):
            cache.put(key, bytes(2000))
            os.utime(cache.path_for(key), (1000 + index, 1000 + index))
        cache.get(keys[0])  # hit: k0 becomes most recently used
        entry = cache.path_for(keys[0]).stat().st_size
        cache.evict(max_bytes=entry)
        assert cache.contains(keys[0])
        assert not cache.contains(keys[1]) and not cache.contains(keys[2])

    def test_put_evicts_when_over_budget(self, tmp_path):
        import os

        cache = ResultCache(tmp_path, max_bytes=1)
        first = CacheKey("exp", "k1")
        cache.put(first, bytes(2000))
        os.utime(cache.path_for(first), (1000, 1000))
        assert cache.contains(first)  # the newest entry is never evicted
        cache.put(CacheKey("exp", "k2"), bytes(2000))
        assert not cache.contains(first)
        assert cache.contains(CacheKey("exp", "k2"))

    def test_parse_size(self):
        from repro.engine import parse_size

        assert parse_size("1024") == 1024
        assert parse_size("4K") == 4096
        assert parse_size("1.5M") == int(1.5 * 1024 * 1024)
        assert parse_size("2G") == 2 * 1024**3
        assert parse_size("2GiB") == 2 * 1024**3
        assert parse_size("0") == 0
        for bad in ("banana", "-1G", "inf", "1e400", "nan"):
            with pytest.raises(ValueError):
                parse_size(bad)


class TestRunner:
    def test_registry_rejects_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("no.such.experiment")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError, match="no parameter"):
            ExperimentRunner().run("test.double", {"typo": 1})

    def test_serial_run(self):
        assert ExperimentRunner().run("test.double") == [2, 4, 6]

    def test_cache_hit_and_invalidation(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        value, first = runner.run_report("test.double", {"values": (5, 6)})
        assert value == [10, 12]
        assert (first.cache_hits, first.executed) == (0, 2)

        _, second = runner.run_report("test.double", {"values": (5, 6)})
        assert second.from_cache
        assert (second.cache_hits, second.executed) == (2, 0)

        # Parameter change invalidates only the new point.
        _, third = runner.run_report("test.double", {"values": (5, 7)})
        assert (third.cache_hits, third.executed) == (1, 1)

    def test_seed_addresses_distinct_cache_entries(self, tmp_path):
        # A result produced under one runner seed must not be served
        # for another: the seed feeds per-point global-RNG derivation.
        cache = ResultCache(tmp_path)
        _, first = ExperimentRunner(cache=cache, seed=1).run_report(
            "test.double", {"values": (5,)}
        )
        assert first.executed == 1
        _, other_seed = ExperimentRunner(cache=cache, seed=2).run_report(
            "test.double", {"values": (5,)}
        )
        assert other_seed.executed == 1  # not a hit
        _, same_seed = ExperimentRunner(cache=cache, seed=1).run_report(
            "test.double", {"values": (5,)}
        )
        assert same_seed.from_cache

    def test_inline_execution_preserves_global_rng_state(self):
        np.random.seed(1234)
        before = np.random.get_state()
        ExperimentRunner().run("test.double")
        after = np.random.get_state()
        assert before[0] == after[0]
        np.testing.assert_array_equal(before[1], after[1])
        assert before[2:] == after[2:]

    def test_volatile_fields_excluded_from_digest(self):
        from repro.analysis.correlation_study import CorrelationPoint

        a = CorrelationPoint("b", 1, 10.0, 20.0, 0.001, 0.5)
        b = CorrelationPoint("b", 1, 10.0, 20.0, 0.009, 0.7)
        assert result_digest(a) == result_digest(b)
        c = CorrelationPoint("b", 1, 11.0, 20.0, 0.001, 0.5)
        assert result_digest(a) != result_digest(c)

    def test_completed_points_survive_a_failing_sweep(self, tmp_path):
        # Results are stored as each point finishes, so work done
        # before a crash is kept and the rerun is incremental.
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(cache=cache)
        with pytest.raises(RuntimeError, match="boom"):
            runner.run("test.double", {"values": (21, "boom")})
        _, report = runner.run_report("test.double", {"values": (21,)})
        assert report.from_cache

    def test_offline_requires_cache(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        runner.run("test.double", {"values": (9,)})
        offline = ExperimentRunner(cache=ResultCache(tmp_path), offline=True)
        assert offline.run("test.double", {"values": (9,)}) == [18]
        with pytest.raises(CacheMiss, match="not cached"):
            offline.run("test.double", {"values": (1234,)})

    def test_parallel_matches_serial(self, tmp_path):
        params = {"benchmarks": ("356.sp", "354.cg", "VGG16"), "config": TINY}
        serial = ExperimentRunner(workers=1).run("compression.fig7", params)
        parallel = ExperimentRunner(workers=3).run("compression.fig7", params)
        assert result_digest(serial) == result_digest(parallel)

        # and a cached re-read reproduces the same bytes
        runner = ExperimentRunner(workers=3, cache=ResultCache(tmp_path))
        first = runner.run("compression.fig7", params)
        second, report = runner.run_report("compression.fig7", params)
        assert report.from_cache
        assert (
            result_digest(first)
            == result_digest(second)
            == result_digest(serial)
        )

    def test_profile_tensors_land_in_result_cache(self, tmp_path):
        from repro.core.profiler import clear_profile_cache

        clear_profile_cache()
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        runner.run(
            "compression.fig7", {"benchmarks": ("356.sp",), "config": TINY}
        )
        usage = runner.cache.usage()
        # profile-role + reference-role tensors, cached alongside the
        # point results (compact arrays — not regenerated snapshots).
        assert usage.per_experiment["profile.tensor"][0] == 2

        # a fresh process (simulated: cleared memo) is served from disk
        clear_profile_cache()
        reread = ExperimentRunner(cache=ResultCache(tmp_path))
        _, report = reread.run_report(
            "compression.fig9", {"benchmarks": ("356.sp",), "config": TINY}
        )
        assert report.executed == 1  # fig9 point itself is new...
        assert reread.cache.usage().per_experiment["profile.tensor"][0] == 2

    def test_worker_processes_are_deterministic(self):
        # Two independent parallel runs (fresh pools, arbitrary
        # completion order) must agree point for point.
        params = {"benchmarks": ("370.bt", "356.sp"), "config": TINY}
        one = ExperimentRunner(workers=2).run("compression.fig3", params)
        two = ExperimentRunner(workers=2).run("compression.fig3", params)
        assert [r.per_snapshot for r in one] == [r.per_snapshot for r in two]
        assert [r.benchmark for r in one] == ["370.bt", "356.sp"]


def test_full_fig7_sweep_parallel_equality(tmp_path):
    """Acceptance: the full Fig. 7 sweep is worker-count invariant and
    a second invocation completes from cache."""
    runner4 = ExperimentRunner(workers=4, cache=ResultCache(tmp_path))
    study4, report4 = runner4.run_report("compression.fig7")
    assert report4.executed == report4.points > 0

    study1 = ExperimentRunner(workers=1).run("compression.fig7")
    assert result_digest(study4) == result_digest(study1)

    _, rerun = runner4.run_report("compression.fig7")
    assert rerun.from_cache
