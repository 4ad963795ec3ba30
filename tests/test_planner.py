"""Planner contracts: plan → optimize → execute.

Pins the ISSUE's sweep-optimizer guarantees:

* planned sweeps are **bit-identical** to running every design point
  alone with no stage 0 (``_run_unplanned``), for arbitrary benchmark
  subsets (property-tested);
* dedupe never merges nodes with different content digests, and every
  merge group's members share the exact (config, algorithm) merge key
  ``plan()`` computes;
* a planned sweep — a single ``run()`` included — builds each
  scheduled artifact exactly once when cold, counting what it finds
  stored instead as reused, and issues strictly fewer bulk
  compression calls than the per-benchmark path;
* the bounded :class:`ResultCache` never performs more than one
  directory scan per evicting put (the ``scans`` counter regression);
* the :mod:`repro.api` facade returns the typed results it documents.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

import repro
from repro import rng as rng_lib
from repro.core.profiler import bulk_compression_call_count, clear_profile_cache
from repro.engine import (
    CacheMiss,
    ExperimentRunner,
    ResultCache,
    param_digest,
    result_digest,
)
from repro.engine.cache import CacheKey
from repro.engine.planner import execute_plan, plan
from repro.engine.registry import get_experiment
from repro.engine.runner import point_digests, run_point_seeded
from repro.gpusim.config import scaled_config
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig

TINY = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)

#: Small, mixed HPC/DL pool so property examples stay fast.
POOL = ("354.cg", "FF_HPGMG", "AlexNet", "VGG16")

#: The CLI smoke scale (``--scale 3.0517578125e-05``).
SMOKE = SnapshotConfig(scale=1.0 / 32768)


def _reset_memos() -> None:
    clear_profile_cache()


def _run_unplanned(name, params, seed=rng_lib.DEFAULT_SEED, cache_root=None):
    """Reference executor: every design point run alone, serially.

    No planner and no stage 0 — each point resolves its own
    dependencies — with the digests and per-point seeds the planner
    uses, so "planned == unplanned" pins what stage 0 may change.
    """
    experiment = get_experiment(name)
    resolved = experiment.resolve_params(params)
    points = experiment.expand(resolved)
    results = [
        run_point_seeded(
            experiment.run_point,
            point,
            rng_lib.stream_seed(f"engine/{name}/{digest}", seed),
            cache_root,
        )
        for point, digest in zip(
            points, point_digests(experiment, points, seed)
        )
    ]
    return experiment.aggregate(results, resolved)


def _requests(benchmarks, config=TINY):
    return [
        ("compression.fig7", {"benchmarks": tuple(benchmarks), "config": config}),
        (
            "compression.fig9",
            {
                "benchmarks": tuple(benchmarks),
                "thresholds": (0.10, 0.30),
                "config": config,
            },
        ),
    ]


def _merge_key(node) -> str:
    """Recompute the exact group key ``plan()`` merges tensor nodes by."""
    algorithm = node.spec.algorithm
    return param_digest(
        "plan.merge",
        {
            "config": node.spec.config,
            "algorithm": f"{type(algorithm).__module__}."
            f"{type(algorithm).__qualname__}",
        },
    )


# ---------------------------------------------------------------------------
# Bit-identity: planned == unplanned, for arbitrary subsets.
# ---------------------------------------------------------------------------
class TestPlannedBitIdentity:
    @settings(max_examples=5, deadline=None)
    @given(
        benchmarks=st.lists(
            st.sampled_from(POOL), unique=True, min_size=1, max_size=2
        ),
        config=st.just(TINY),
    )
    # The whole pool at the CLI smoke scale.
    @example(benchmarks=list(POOL), config=SMOKE)
    def test_random_subsets_bit_identical(self, benchmarks, config):
        requests = _requests(benchmarks, config=config)
        planned = ExperimentRunner().run_sweep(requests)
        unplanned = [_run_unplanned(name, params) for name, params in requests]
        assert [result_digest(v) for v in planned.values] == [
            result_digest(v) for v in unplanned
        ]

    def test_planned_sweep_matches_cached_unplanned(self, tmp_path):
        requests = _requests(("VGG16",))
        planned = ExperimentRunner(
            cache=ResultCache(tmp_path / "planned")
        ).run_sweep(requests)
        for (name, params), value in zip(requests, planned.values):
            unplanned = _run_unplanned(
                name, params, cache_root=str(tmp_path / "unplanned")
            )
            assert result_digest(unplanned) == result_digest(value)


# ---------------------------------------------------------------------------
# Dedupe and merge invariants.
# ---------------------------------------------------------------------------
class TestDedupeInvariants:
    def test_merge_groups_share_key_with_distinct_digests(self):
        sweep_plan = plan(_requests(("354.cg", "AlexNet")), ExperimentRunner())
        assert sweep_plan.merge_groups
        for group in sweep_plan.merge_groups:
            nodes = [sweep_plan.shared[node_id] for node_id in group.node_ids]
            keys = {_merge_key(node) for node in nodes}
            assert len(keys) == 1  # one (config, algorithm) pair per group
            digests = [node.digest for node in nodes]
            assert len(set(digests)) == len(digests)  # merged, never fused

    def test_distinct_param_digests_never_collapse(self):
        """Two configs that differ produce disjoint node sets."""
        other = SnapshotConfig(scale=1.0 / 131072, min_footprint_bytes=256 * 1024)
        sweep_plan = plan(
            _requests(("VGG16",)) + _requests(("VGG16",), config=other),
            ExperimentRunner(),
        )
        by_kind_benchmark: dict = {}
        for node in sweep_plan.shared.values():
            key = (node.kind, node.label)
            by_kind_benchmark.setdefault(key, set()).add(node.digest)
        # The same benchmark under two configs yields two digests, and
        # no digest is shared across different (kind, label) identities.
        all_digests = [
            digest for s in by_kind_benchmark.values() for digest in s
        ]
        assert len(all_digests) == len(set(all_digests))
        # ... and the two configs never share a merge group.
        for group in sweep_plan.merge_groups:
            configs = {
                sweep_plan.shared[node_id].spec.config
                for node_id in group.node_ids
            }
            assert len(configs) == 1

    def test_cross_experiment_dedupe_counts(self):
        sweep_plan = plan(_requests(("354.cg", "VGG16")), ExperimentRunner())
        stats = sweep_plan.stats()
        # fig7 and fig9 points reference the same pipeline artifacts.
        assert stats.deduped_references > 0
        assert stats.shared_references == sum(
            node.references for node in sweep_plan.shared.values()
        )
        assert any(
            node.references > 1 for node in sweep_plan.shared.values()
        )

    def test_predicted_hits_skip_merge(self, tmp_path):
        """Warm design points leave their tensors out of stage 0."""
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        requests = _requests(("VGG16",))
        runner.run_sweep(requests)
        warm = plan(requests, runner)
        assert all(all(r.predicted_hits) for r in warm.requests)
        assert warm.merge_groups == []
        assert [
            node_id
            for node_id, node in warm.shared.items()
            if node.kind == "entry_state" and node.scheduled
        ] == []
        assert warm.stats().planned_bulk_calls == 0


# ---------------------------------------------------------------------------
# Execution counters: snapshots once, strictly fewer bulk calls.
# ---------------------------------------------------------------------------
class TestExecutionCounters:
    # A scale no other test uses, so process-global memos cannot have
    # warmed these artifacts before the counters are read.
    COLD = SnapshotConfig(scale=1.0 / 327680, min_footprint_bytes=256 * 1024)

    def test_cold_planned_sweep_counters(self):
        _reset_memos()
        runner = ExperimentRunner()
        requests = _requests(("354.cg", "AlexNet"), config=self.COLD)
        sweep_plan = plan(requests, runner)
        stats = sweep_plan.stats()
        result = execute_plan(sweep_plan, runner)
        execution = result.execution

        # Cold and serial, stage 0 builds every scheduled node exactly
        # once, and generates snapshot runs only for the nodes that
        # consume no other artifact...
        scheduled = [n for n in sweep_plan.shared.values() if n.scheduled]
        assert execution.shared_built == len(scheduled)
        assert execution.shared_reused == 0
        assert execution.snapshot_generations == sum(
            not n.spec.deps() for n in scheduled
        )
        # ... so snapshot runs are bounded by the distinct (benchmark,
        # config) pairs the plan declares (2 benchmarks x the pipeline's
        # profile + reference configs = 4 here), never once per point.
        distinct = {
            (node.spec.benchmark, repr(node.spec.config))
            for node in sweep_plan.shared.values()
        }
        assert execution.snapshot_generations <= len(distinct)
        assert len(distinct) < execution.points * 2  # sharing actually bites
        # Stage 0 issued exactly the planned number of bulk calls —
        # strictly fewer than the per-benchmark unplanned path.
        assert execution.bulk_compression_calls == stats.planned_bulk_calls
        assert stats.planned_bulk_calls < stats.unplanned_bulk_calls
        assert "bulk call(s)" in execution.summary()

    def test_single_run_merges_bulk_calls(self):
        # A lone run is a one-request sweep: its tensor builds merge
        # into one bulk call per snapshot config, not one per benchmark.
        params = {"benchmarks": POOL, "config": TINY}
        _reset_memos()
        stats = plan([("compression.fig7", params)]).stats()
        before = bulk_compression_call_count()
        ExperimentRunner().run_report("compression.fig7", params)
        calls = bulk_compression_call_count() - before
        assert calls == stats.planned_bulk_calls < stats.unplanned_bulk_calls

    def test_warm_points_execute_nothing(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        requests = _requests(("VGG16",))
        cold = runner.run_sweep(requests)
        warm = runner.run_sweep(requests)
        assert warm.execution.points_executed == 0
        assert warm.execution.point_cache_hits == warm.execution.points
        assert [result_digest(v) for v in warm.values] == [
            result_digest(v) for v in cold.values
        ]


# ---------------------------------------------------------------------------
# Tape planning: one recording per (trace, state, geometry) per sweep.
# ---------------------------------------------------------------------------
class TestTapePlanning:
    # A trace geometry no other test records, so process-global tape
    # memos and blob stores can never pre-warm these points.
    TRACE = TraceConfig(
        sm_count=4,
        warps_per_sm=8,
        memory_instructions_per_warp=22,
        snapshot_config=TINY,
    )
    GPU = scaled_config(sm_count=4, warps_per_sm=8)

    def _requests(self, benchmarks=("354.cg", "AlexNet"),
                  link_sweep=(50.0, 150.0, 300.0)):
        return [
            (
                "perf.fig11",
                {
                    "benchmarks": tuple(benchmarks),
                    "config": self.GPU,
                    "trace_config": self.TRACE,
                    "link_sweep": link_sweep,
                    "profile_config": TINY,
                    "engine": "relaxed",
                    "verify": 0.0,
                },
            ),
            (
                "correlation.fig10",
                {
                    "benchmarks": tuple(benchmarks[:1]),
                    "instruction_scales": (6,),
                },
            ),
        ]

    def test_one_tape_recording_per_relaxed_benchmark(
        self, tmp_path, generations
    ):
        _reset_memos()
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        requests = self._requests()
        sweep_plan = plan(requests, runner)
        # fig10's points run the exact engine (tape-free), so the
        # co-submitted sweep plans exactly one tape node per fig11
        # relaxed benchmark.
        tapes = [
            node for node in sweep_plan.shared.values()
            if node.kind == "tape" and node.scheduled
        ]
        assert len(tapes) == 2
        cold = execute_plan(sweep_plan, runner)
        assert cold.execution.tape_recordings == 2

        warm = execute_plan(plan(requests, runner), runner)
        assert warm.execution.tape_recordings == 0
        assert [result_digest(v) for v in warm.values] == [
            result_digest(v) for v in cold.values
        ]

        # A new link sweep misses every fig11 point, yet the points
        # load their stored traces and tapes: nothing is regenerated.
        del generations[:]
        relinked = runner.run_sweep(self._requests(link_sweep=(75.0, 150.0)))
        assert relinked.execution.points_executed == 2
        assert relinked.execution.tape_recordings == 0
        assert generations == []

    def test_cold_sweep_generates_each_distinct_trace_once(
        self, tmp_path, generations
    ):
        _reset_memos()
        # metadata.fig5b and perf.fig11 share the same two traces;
        # correlation.fig10's trace geometry is its own.
        requests = [
            (
                "metadata.fig5b",
                {"benchmarks": ("354.cg", "AlexNet"), "trace_config": self.TRACE},
            ),
            *self._requests(),
        ]
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        sweep_plan = plan(requests, runner)
        traces = [n for n in sweep_plan.shared.values() if n.kind == "trace"]
        assert len(traces) == 3
        assert sum(n.references for n in traces) == 5
        result = execute_plan(sweep_plan, runner)
        assert len(set(generations)) == len(generations) == 3
        assert {benchmark for benchmark, _ in generations} == {
            "354.cg", "AlexNet",
        }
        # Every scheduled node is built once; trace builds consume
        # stored entry states, not snapshot runs.
        scheduled = [n for n in sweep_plan.shared.values() if n.scheduled]
        assert result.execution.shared_built == len(scheduled)
        assert result.execution.snapshot_generations == sum(
            not n.spec.deps() for n in scheduled
        )

    def test_artifacts_stored_after_planning_count_as_reused(self, tmp_path):
        """Stage 0 reads what was stored between ``plan`` and
        ``execute_plan`` instead of rebuilding it, and counts it."""
        from repro.core.profiler import set_tensor_cache
        from repro.workloads.traces import stored_trace

        _reset_memos()
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        requests = self._requests()[:1]
        sweep_plan = plan(requests, runner)
        scheduled = [n for n in sweep_plan.shared.values() if n.scheduled]
        assert len(scheduled) == 8  # 2 x (profile, layout, trace, tape)
        # Storing one trace stores the entry state its layout reads.
        previous = set_tensor_cache(runner.cache)
        try:
            stored_trace("354.cg", self.TRACE)
        finally:
            set_tensor_cache(previous)

        result = execute_plan(sweep_plan, runner)
        execution = result.execution
        assert execution.shared_reused == 2
        assert execution.shared_built == len(scheduled) - 2
        assert execution.snapshot_generations == 3  # 2 profiles, 1 layout
        assert execution.tape_recordings == 2
        unplanned = [_run_unplanned(name, params) for name, params in requests]
        assert [result_digest(v) for v in result.values] == [
            result_digest(v) for v in unplanned
        ]


# ---------------------------------------------------------------------------
# Cacheless pools share stage-0 artifacts like cached ones.
# ---------------------------------------------------------------------------
class TestCachelessPool:
    def _requests(self):
        return [
            ("compression.fig7", {"benchmarks": POOL, "config": TINY}),
            (
                "perf.fig11",
                {
                    "benchmarks": POOL,
                    "config": TestTapePlanning.GPU,
                    "trace_config": TestTapePlanning.TRACE,
                    "link_sweep": (50.0, 150.0),
                    "profile_config": TINY,
                    "engine": "relaxed",
                    "verify": 0.0,
                },
            ),
        ]

    def test_pooled_cacheless_sweep_matches_serial_and_cached(self, tmp_path):
        requests = self._requests()
        _reset_memos()
        pooled = ExperimentRunner(workers=2).run_sweep(requests)
        _reset_memos()
        cached = ExperimentRunner(
            workers=2, cache=ResultCache(tmp_path)
        ).run_sweep(requests)
        _reset_memos()
        serial = [_run_unplanned(name, params) for name, params in requests]
        assert [result_digest(v) for v in pooled.values] == [
            result_digest(v) for v in serial
        ]
        # Stage-0 tape tasks read the tensors wave 1 built in another
        # worker instead of rebuilding them.
        assert pooled.execution.bulk_compression_calls == (
            cached.execution.bulk_compression_calls
        )
        assert pooled.execution.tape_recordings == len(POOL)


# ---------------------------------------------------------------------------
# ResultCache scan accounting (the evict-rescan regression).
# ---------------------------------------------------------------------------
class TestCacheScanRegression:
    def _put(self, cache, index, payload_bytes=2000):
        cache.put(
            CacheKey("scan.test", f"{index:032d}"), b"x" * payload_bytes
        )

    def test_evicting_put_scans_once(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        self._put(cache, 0)
        first_put_scans = cache.stats.scans
        assert first_put_scans == 1  # measure + trim in ONE walk
        self._put(cache, 1)
        assert cache.stats.scans == first_put_scans + 1
        assert cache.stats.evictions >= 1

    def test_non_evicting_bounded_puts_do_not_scan(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10**9)
        self._put(cache, 0)
        assert cache.stats.scans == 1  # first put synchronises the estimate
        for index in range(1, 5):
            self._put(cache, index)
        assert cache.stats.scans == 1  # running estimate, no rescans

    def test_usage_and_evict_scan_exactly_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._put(cache, 0)
        before = cache.stats.scans
        cache.usage()
        assert cache.stats.scans == before + 1
        cache.evict(max_bytes=0)
        assert cache.stats.scans == before + 2

    def test_unbounded_puts_never_scan(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(4):
            self._put(cache, index)
        assert cache.stats.scans == 0


# ---------------------------------------------------------------------------
# The repro.api facade.
# ---------------------------------------------------------------------------
class TestApiFacade:
    REQUEST = ("compression.fig3", {"benchmarks": ("VGG16",), "config": TINY})

    def test_run_returns_typed_result(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        outcome = repro.run(*self.REQUEST, runner=runner)
        assert outcome.experiment == "compression.fig3"
        assert outcome.digest == result_digest(outcome.value)
        assert not outcome.from_cache
        again = repro.run(*self.REQUEST, runner=runner)
        assert again.from_cache
        assert again.digest == outcome.digest

    def test_sweep_results_mapping(self):
        requests = _requests(("VGG16",))
        results = repro.sweep(requests, runner=ExperimentRunner())
        assert len(results) == 2
        assert [r.experiment for r in results] == [
            "compression.fig7",
            "compression.fig9",
        ]
        assert results["compression.fig9"].digest == results.runs[1].digest
        with pytest.raises(KeyError, match="compression.fig7"):
            results["um.fig12"]
        assert results.execution.points == 2
        assert results.plan.stats().experiments == 2

    def test_plan_describe(self):
        text = repro.plan(_requests(("VGG16",)), runner=ExperimentRunner()).describe()
        assert "plan: 2 experiment(s)" in text
        assert "bulk compression call(s)" in text

    def test_report_is_offline(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path), offline=True)
        with pytest.raises(CacheMiss):
            repro.report(*self.REQUEST, runner=runner)
        warm = ExperimentRunner(cache=ResultCache(tmp_path))
        executed = repro.run(*self.REQUEST, runner=warm)
        served = repro.report(*self.REQUEST, runner=runner)
        assert served.from_cache
        assert served.digest == executed.digest

    def test_cache_stats_snapshot(self, tmp_path):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        repro.run(*self.REQUEST, runner=runner)
        stats = repro.cache_stats(tmp_path)
        assert stats.root == str(tmp_path)
        # The point, and the stage-0 tensor build with its free bytes.
        assert stats.entries == 3
        assert stats.bytes > 0
        assert set(stats.per_experiment) == {
            "compression.fig3", "profile.tensor", "profile.free"
        }
