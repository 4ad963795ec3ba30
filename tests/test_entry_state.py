"""Tensor-reuse contracts for the simulator-facing entry state.

The perf (Fig. 11) and correlation (Fig. 10) studies consume the
cached :class:`~repro.core.profile_tensor.EntryStateTensor` instead of
regenerated memory dumps.  These tests pin that plumbing:

* the cached reduction is identical to reducing the snapshot directly;
* traces, compression states and whole study points reuse the memoised
  state — a warm design point generates zero snapshots;
* the state persists in the engine result cache (``profile.entries``)
  and is served from disk across memo resets (i.e. across processes).
"""

import numpy as np

from repro.core.profiler import (
    bulk_compression_call_count,
    clear_profile_cache,
    entry_state_tensor,
    profile_pass_count,
    set_tensor_cache,
)
from repro.engine.cache import ResultCache
from repro.engine.store import process_store
from repro.workloads.snapshots import (
    SnapshotConfig,
    generate_snapshot,
    generation_count,
)
from repro.workloads.traces import TraceConfig, generate_trace, layout_state

SMALL = SnapshotConfig(scale=1.0 / 65536, min_footprint_bytes=256 * 1024)
SMALL_TRACE = TraceConfig(
    sm_count=2,
    warps_per_sm=4,
    memory_instructions_per_warp=12,
    snapshot_config=SMALL,
)


def _reset():
    clear_profile_cache()


def _entry_state_stores() -> int:
    """Entry states built and stored (store hits are not stores)."""
    stats = process_store().stats
    return stats.per_namespace.get("profile.entries", (0, 0, 0))[2]


class TestEntryStateTensor:
    def test_matches_direct_snapshot_reduction(self):
        _reset()
        from repro.workloads.valuemodels import (
            nominal_sectors_for,
            zero_class_eligible_for,
        )

        state = entry_state_tensor("ResNet50", SMALL, 5)
        snapshot = generate_snapshot("ResNet50", 5, SMALL)
        assert state.names == tuple(a.name for a in snapshot.allocations)
        assert state.entries == snapshot.entries
        assert state.footprint_bytes == snapshot.footprint_bytes
        sectors = np.concatenate(
            [nominal_sectors_for(a.classes) for a in snapshot.allocations]
        )
        zero = np.concatenate(
            [zero_class_eligible_for(a.classes) for a in snapshot.allocations]
        )
        assert (state.sectors == sectors).all()
        assert (state.zero_fit == zero).all()

    def test_memoised_per_process(self):
        _reset()
        entry_state_tensor("370.bt", SMALL, 5)
        builds = _entry_state_stores()
        generated = generation_count()
        again = entry_state_tensor("370.bt", SMALL, 5)
        assert again is entry_state_tensor("370.bt", SMALL, 5)
        assert _entry_state_stores() == builds
        assert generation_count() == generated

    def test_persists_in_result_cache(self, tmp_path):
        """A fresh memo (i.e. a fresh process) is served from disk —
        zero snapshot generation on the warm path."""
        _reset()
        previous = set_tensor_cache(ResultCache(str(tmp_path)))
        try:
            first = entry_state_tensor("370.bt", SMALL, 5)
            _reset()  # simulate a new worker process
            generated = generation_count()
            builds = _entry_state_stores()
            second = entry_state_tensor("370.bt", SMALL, 5)
            assert generation_count() == generated
            assert _entry_state_stores() == builds
            assert (second.sectors == first.sectors).all()
            assert (second.zero_fit == first.zero_fit).all()
            assert second.names == first.names
        finally:
            set_tensor_cache(previous)


class TestSimulatorsReuseEntryState:
    def test_trace_generation_regenerates_nothing_when_warm(self):
        _reset()
        generate_trace("370.bt", SMALL_TRACE)
        generated = generation_count()
        builds = _entry_state_stores()
        trace = generate_trace("370.bt", SMALL_TRACE)
        layout = layout_state("370.bt", SMALL_TRACE)
        assert generation_count() == generated
        assert _entry_state_stores() == builds
        assert trace.footprint_bytes == layout.footprint_bytes

    def test_perf_row_warm_run_regenerates_nothing(self):
        """A Fig. 11 design point whose tensors are warm performs zero
        snapshot generations, zero profile passes and zero bulk
        compression calls (ISSUE acceptance criterion)."""
        from repro.analysis.perf_study import perf_benchmark_row
        from repro.gpusim.config import scaled_config

        _reset()
        kwargs = dict(
            config=scaled_config(sm_count=2, warps_per_sm=4),
            trace_config=SMALL_TRACE,
            link_sweep=(150.0,),
            profile_config=SMALL,
        )
        cold = perf_benchmark_row("370.bt", **kwargs)
        generated = generation_count()
        passes = profile_pass_count()
        builds = _entry_state_stores()
        bulk = bulk_compression_call_count()
        warm = perf_benchmark_row("370.bt", **kwargs)
        assert generation_count() == generated
        assert profile_pass_count() == passes
        assert _entry_state_stores() == builds
        assert bulk_compression_call_count() == bulk
        assert warm.buddy == cold.buddy
        assert warm.bandwidth_only == cold.bandwidth_only

    def test_correlation_point_warm_run_regenerates_nothing(self):
        """Fig. 10 points share one cached layout per benchmark: the
        second trace length adds no snapshot generation."""
        from repro.analysis.correlation_study import correlation_point

        _reset()
        correlation_point("370.bt", 6, sm_count=2, warps_per_sm=2)
        generated = generation_count()
        builds = _entry_state_stores()
        correlation_point("370.bt", 12, sm_count=2, warps_per_sm=2)
        assert generation_count() == generated
        assert _entry_state_stores() == builds

    def test_cold_perf_row_generates_each_dump_once(self):
        """Cold path sanity: one layout dump plus one profile-role run
        — nothing is generated twice."""
        from repro.analysis.perf_study import perf_benchmark_row
        from repro.gpusim.config import scaled_config

        _reset()
        generated = generation_count()
        perf_benchmark_row(
            "354.cg",
            config=scaled_config(sm_count=2, warps_per_sm=4),
            trace_config=SMALL_TRACE,
            link_sweep=(150.0,),
            profile_config=SMALL,
        )
        profile_role = SMALL.as_profile()
        assert generation_count() - generated == 1 + profile_role.snapshots
