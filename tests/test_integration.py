"""Cross-module integration tests.

These exercise the seams DESIGN.md calls out: the static pipeline and
the performance simulator must agree on what overflows; selections
must always be placeable in the modelled GPU; and the whole system
must hold the paper's headline invariants end to end.
"""

import numpy as np
import pytest

from repro.core.controller import BuddyCompressor
from repro.core.allocator import BuddyAllocator
from repro.core.entry import TargetRatio
from repro.core.targets import FINAL, NAIVE
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.config import scaled_config
from repro.gpusim.simulator import DependencyDrivenSimulator
from repro.units import GIB, MEMORY_ENTRY_BYTES
from repro.workloads.catalog import ALL_BENCHMARKS
from repro.workloads.snapshots import SnapshotConfig, generate_snapshot
from repro.workloads.traces import TraceConfig, generate_trace, layout_snapshot

SMALL = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)


@pytest.fixture(scope="module")
def engine():
    return BuddyCompressor(SMALL)


class TestStaticVsSimulatorConsistency:
    def test_buddy_fractions_agree(self, engine):
        """The simulator's compression state and the static evaluator
        must report the same entry-overflow fraction for the same
        snapshot and selection."""
        benchmark = "ResNet50"
        selection = engine.select(engine.profile(benchmark), FINAL)
        snapshot = generate_snapshot(benchmark, 5, SMALL)
        state = CompressionState.from_snapshot(
            snapshot, selection, CompressionMode.BUDDY
        )

        from repro.compression.bpc import BPCCompressor
        from profile_oracle import SectorHistogram

        bpc = BPCCompressor()
        total = 0
        overflowing = 0.0
        for alloc in snapshot.allocations:
            histogram = SectorHistogram.from_sizes(
                bpc.compressed_sizes(alloc.data)
            )
            overflow = histogram.overflow_fraction(selection[alloc.name])
            total += histogram.total
            overflowing += overflow * histogram.total
        static_fraction = overflowing / total
        assert state.buddy_access_fraction() == pytest.approx(
            static_fraction, abs=0.01
        )


class TestPlacementFeasibility:
    @pytest.mark.parametrize(
        "bench", [b.name for b in ALL_BENCHMARKS], ids=str
    )
    def test_every_final_selection_is_placeable(self, engine, bench):
        """The 4x carve-out cap guarantees every selection fits a GPU
        sized at footprint/first-ratio with its 3x carve-out."""
        selection = engine.select(engine.profile(bench), FINAL)
        snapshot = generate_snapshot(bench, 0, SMALL)
        # a device sized exactly for the compressed footprint
        device = sum(
            alloc.entries * selection[alloc.name].device_bytes
            for alloc in snapshot.allocations
        )
        allocator = BuddyAllocator(device_capacity=device)
        for alloc in snapshot.allocations:
            allocator.allocate(
                alloc.name,
                alloc.entries * MEMORY_ENTRY_BYTES,
                selection[alloc.name],
            )
        assert allocator.device_used == device
        assert allocator.buddy_used <= allocator.buddy_capacity


class TestEndToEndHeadlines:
    def test_paper_abstract_numbers(self, engine):
        """The abstract: ~1.9x HPC / ~1.5x DL compression."""
        hpc = [engine.run(n, FINAL).compression_ratio
               for n in ("356.sp", "352.ep", "354.cg")]
        dl = [engine.run(n, FINAL).compression_ratio
              for n in ("ResNet50", "SqueezeNet")]
        assert 1.4 < float(np.exp(np.mean(np.log(hpc)))) < 2.6
        assert 1.3 < float(np.exp(np.mean(np.log(dl)))) < 1.8

    def test_naive_never_beats_final(self, engine):
        for bench in ("351.palm", "VGG16"):
            profile = engine.profile(bench)
            naive = engine.evaluate(bench, engine.select(profile, NAIVE), "naive")
            final = engine.evaluate(bench, engine.select(profile, FINAL), "final")
            assert final.compression_ratio >= naive.compression_ratio

    def test_simulated_buddy_traffic_tracks_selection(self):
        """More aggressive targets produce more link traffic in the
        performance simulator."""
        trace_config = TraceConfig(
            sm_count=4,
            warps_per_sm=8,
            memory_instructions_per_warp=24,
            snapshot_config=SnapshotConfig(
                scale=1.0 / 16384, min_footprint_bytes=256 * 1024
            ),
        )
        trace = generate_trace("ResNet50", trace_config)
        snapshot = layout_snapshot("ResNet50", trace_config)
        config = scaled_config(sm_count=4, warps_per_sm=8)
        link_bytes = {}
        for label, target in (("1.33x", TargetRatio.X1_33), ("4x", TargetRatio.X4)):
            selection = {a.name: target for a in snapshot.allocations}
            state = CompressionState.from_snapshot(
                snapshot, selection, CompressionMode.BUDDY
            )
            result = DependencyDrivenSimulator(config).run(trace, state)
            link_bytes[label] = result.link_bytes
        assert link_bytes["4x"] > link_bytes["1.33x"]

    def test_oversubscribed_workload_fits_with_compression(self, engine):
        """The headline use case: data larger than the GPU fits once
        compressed, and fails without compression."""
        from repro.core.allocator import OutOfMemoryError

        device = 1 * GIB
        allocator = BuddyAllocator(device_capacity=device)
        with pytest.raises(OutOfMemoryError):
            allocator.allocate("raw", int(1.5 * GIB), TargetRatio.X1)
        compressed = BuddyAllocator(device_capacity=device)
        compressed.allocate("data", int(1.5 * GIB), TargetRatio.X2)
        assert compressed.effective_capacity_ratio() == pytest.approx(2.0)
