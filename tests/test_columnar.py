"""Columnar pipeline contracts.

Three layers of protection around the ProfileTensor refactor:

1. Property tests: every vectorised reduction is *bit-identical* to
   the legacy per-:class:`SectorHistogram` path (reimplemented here,
   verbatim, from the pre-refactor code) on random profiles and on
   random synthetic snapshots.
2. Golden digests: Fig. 7 / Fig. 9 study outputs are pinned to the
   content digests produced by the pre-refactor serial pipeline.
3. The "profile once" contract: a Fig. 9 threshold sweep performs
   exactly one profiling pass and one reference pass, asserted via
   the snapshot-generation and profile-pass counters.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.controller import BuddyCompressor, BuddyConfig
from repro.core.entry import ALLOWED_TARGETS, TargetRatio
from repro.core.histogram import SectorHistogram
from repro.core.profile_tensor import TARGET_INDEX, TARGET_ORDER, ProfileTensor
from repro.core.profiler import (
    clear_profile_cache,
    profile_pass_count,
    profile_snapshots,
)
from repro.core.targets import (
    ZERO_PAGE_TOLERANCE,
    apply_zero_page,
    select_per_allocation,
    selection_ratio,
    threshold_sweep,
)
from repro.engine import ExperimentRunner, result_digest
from repro.units import MEMORY_ENTRY_BYTES
from repro.workloads.snapshots import (
    SnapshotConfig,
    generation_count,
)

TINY = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)

#: Benchmarks covering HPC, drifting-compressibility and DL behaviour.
GOLDEN_BENCHMARKS = ("356.sp", "355.seismic", "ResNet50")

#: Pre-refactor content digests (serial legacy pipeline, see module
#: docstring).  These pin the refactor to bit-identical outputs.
GOLDEN_FIG7_TINY = "6e5a5f47e4c5533d5532daefe0ef550d"
GOLDEN_FIG9_TINY = "ba735b7ef1d933d15ed6e7032cfaa84e"
GOLDEN_FIG7_CI_SCALE = "c86493299200107c86389d651ee838e6"

EIGHT_THRESHOLDS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)


# ---------------------------------------------------------------------------
# The legacy algorithms, reimplemented verbatim from the pre-refactor
# per-histogram code (profiler.py / targets.py / controller.py).
# ---------------------------------------------------------------------------
def legacy_worst_overflow(histograms, target):
    return max((h.overflow_fraction(target) for h in histograms), default=1.0)


def legacy_select_per_allocation(per_alloc_histograms, threshold):
    selection = {}
    for name, histograms in per_alloc_histograms.items():
        chosen = TargetRatio.X1
        for target in ALLOWED_TARGETS:
            if legacy_worst_overflow(histograms, target) <= threshold:
                chosen = target
                break
        selection[name] = chosen
    return selection


def legacy_selection_ratio(selection, names, fractions):
    footprint = 0.0
    device = 0.0
    for name, fraction in zip(names, fractions):
        footprint += fraction * MEMORY_ENTRY_BYTES
        device += fraction * selection[name].device_bytes
    if device == 0:
        return 1.0
    return footprint / device


def legacy_apply_zero_page(
    selection, per_alloc_histograms, names, fractions, tolerance
):
    promoted = dict(selection)
    candidates = [
        (name, fraction)
        for name, fraction in zip(names, fractions)
        if legacy_worst_overflow(
            per_alloc_histograms[name], TargetRatio.X16
        )
        <= tolerance
    ]
    for name, _ in sorted(candidates, key=lambda item: -item[1]):
        trial = dict(promoted)
        trial[name] = TargetRatio.X16
        if legacy_selection_ratio(trial, names, fractions) <= 4.0:
            promoted = trial
    return promoted


def legacy_evaluate_traffic(per_alloc_histograms, selection, snapshots):
    entry_fractions = []
    sector_fractions = []
    for index in range(snapshots):
        entries = 0
        overflowing = 0.0
        sectors = 0.0
        for name, histograms in per_alloc_histograms.items():
            histogram = histograms[index]
            target = selection[name]
            entries += histogram.total
            overflowing += histogram.overflow_fraction(target) * histogram.total
            sectors += histogram.buddy_sector_fraction(target) * histogram.total
        entry_fractions.append(overflowing / max(entries, 1))
        sector_fractions.append(sectors / max(entries, 1))
    return entry_fractions, sector_fractions


# ---------------------------------------------------------------------------
# Random profile/snapshot generators.
# ---------------------------------------------------------------------------
def random_tensor(seed: int) -> ProfileTensor:
    rng = np.random.default_rng(seed)
    allocs = int(rng.integers(1, 9))
    snaps = int(rng.integers(1, 13))
    counts = rng.integers(0, 1000, size=(allocs, snaps, 4))
    # occasionally empty cells (total == 0) and all-one-bucket cells
    for _ in range(int(rng.integers(0, 4))):
        counts[rng.integers(allocs), rng.integers(snaps)] = 0
    zero_fit = rng.integers(0, counts[:, :, 0] + 1)
    fractions = rng.random(allocs)
    if allocs > 1 and rng.random() < 0.5:
        fractions[1] = fractions[0]  # exercise stable tie-breaking
    return ProfileTensor(
        benchmark=f"random-{seed}",
        names=tuple(f"a{i}" for i in range(allocs)),
        fractions=fractions,
        counts=counts,
        zero_fit=zero_fit,
    )


def histogram_views(tensor: ProfileTensor) -> dict[str, list[SectorHistogram]]:
    return {
        name: [
            SectorHistogram(
                tensor.counts[position, snapshot].copy(),
                int(tensor.zero_fit[position, snapshot]),
            )
            for snapshot in range(tensor.snapshot_count)
        ]
        for position, name in enumerate(tensor.names)
    }


def random_snapshots(seed: int, snapshots: int = 4):
    """Snapshot-shaped objects over random (n, 32) uint32 entries."""
    rng = np.random.default_rng(seed)
    names = [f"alloc{i}" for i in range(int(rng.integers(1, 5)))]
    fractions = rng.random(len(names))
    runs = []
    for _ in range(snapshots):
        allocations = []
        for name, fraction in zip(names, fractions):
            entries = int(rng.integers(8, 200))
            data = rng.integers(
                0, 2**32, size=(entries, 32), dtype=np.uint32
            )
            # sprinkle compressible and zero entries
            data[rng.random(entries) < 0.3] = 0
            small = rng.random(entries) < 0.3
            data[small] &= 0xFF
            allocations.append(
                SimpleNamespace(
                    name=name,
                    data=data,
                    spec=SimpleNamespace(fraction=float(fraction)),
                )
            )
        runs.append(SimpleNamespace(allocations=allocations))
    return runs


# ---------------------------------------------------------------------------
# Property tests: columnar == legacy, bit for bit.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
class TestColumnarMatchesLegacy:
    def test_fraction_reductions(self, seed):
        tensor = random_tensor(seed)
        views = histogram_views(tensor)
        for position, name in enumerate(tensor.names):
            for snapshot, histogram in enumerate(views[name]):
                for target in TARGET_ORDER:
                    row = TARGET_INDEX[target]
                    assert (
                        tensor.overflow_fractions[row, position, snapshot]
                        == histogram.overflow_fraction(target)
                    )
                    assert (
                        tensor.sector_fractions[row, position, snapshot]
                        == histogram.buddy_sector_fraction(target)
                    )
            for target in TARGET_ORDER:
                assert tensor.worst_overflow[
                    TARGET_INDEX[target], position
                ] == legacy_worst_overflow(views[name], target)

    def test_selection_policies(self, seed):
        tensor = random_tensor(seed)
        views = histogram_views(tensor)
        for threshold in (0.0, 0.05, 0.30, 0.75, 1.0):
            assert select_per_allocation(
                tensor, threshold
            ) == legacy_select_per_allocation(views, threshold)
        base = select_per_allocation(tensor, 0.30)
        assert apply_zero_page(
            base, tensor, ZERO_PAGE_TOLERANCE
        ) == legacy_apply_zero_page(
            base, views, tensor.names, tensor.fractions, ZERO_PAGE_TOLERANCE
        )

    def test_selection_ratio_and_traffic(self, seed):
        tensor = random_tensor(seed)
        views = histogram_views(tensor)
        rng = np.random.default_rng(seed + 1000)
        for _ in range(3):
            selection = {
                name: TARGET_ORDER[int(rng.integers(len(TARGET_ORDER)))]
                for name in tensor.names
            }
            indices = tensor.selection_indices(selection)
            assert tensor.selection_ratio(indices) == legacy_selection_ratio(
                selection, tensor.names, tensor.fractions
            )
            entry, sector = tensor.traffic(indices)
            legacy_entry, legacy_sector = legacy_evaluate_traffic(
                views, selection, tensor.snapshot_count
            )
            assert entry.tolist() == legacy_entry
            assert sector.tolist() == legacy_sector


@pytest.mark.parametrize("seed", range(5))
def test_random_snapshot_pipeline_matches_legacy(seed):
    """End to end on random snapshots: build through the public
    profiler, then compare selection + evaluation with the legacy
    algorithms over per-snapshot histograms built independently."""
    runs = random_snapshots(seed)
    profile = profile_snapshots(f"random-{seed}", runs)
    tensor = profile.tensor

    from repro.compression.bpc import BPCCompressor

    bpc = BPCCompressor()
    views: dict[str, list[SectorHistogram]] = {}
    for run in runs:
        for alloc in run.allocations:
            views.setdefault(alloc.name, []).append(
                SectorHistogram.from_sizes(bpc.compressed_sizes(alloc.data))
            )

    for threshold in (0.10, 0.30, 0.60):
        selection = select_per_allocation(profile, threshold)
        assert selection == legacy_select_per_allocation(views, threshold)
        assert selection_ratio(selection, profile) == legacy_selection_ratio(
            selection, tensor.names, tensor.fractions
        )
        entry, sector = tensor.traffic(tensor.selection_indices(selection))
        legacy_entry, legacy_sector = legacy_evaluate_traffic(
            views, selection, tensor.snapshot_count
        )
        assert entry.tolist() == legacy_entry
        assert sector.tolist() == legacy_sector


# ---------------------------------------------------------------------------
# Batched evaluation semantics.
# ---------------------------------------------------------------------------
class TestEvaluateMany:
    def test_matches_sequential_evaluate(self):
        engine = BuddyCompressor(BuddyConfig(snapshot_config=TINY))
        profile = engine.profile("356.sp")
        sweep = threshold_sweep(profile, EIGHT_THRESHOLDS)
        selections = list(sweep.values())
        names = [f"t{t:.2f}" for t in sweep]
        batch = engine.evaluate_many("356.sp", selections, names)
        for selection, name, batched in zip(selections, names, batch):
            single = engine.evaluate("356.sp", selection, name)
            assert result_digest(single) == result_digest(batched)

    def test_rejects_mismatched_names(self):
        engine = BuddyCompressor(BuddyConfig(snapshot_config=TINY))
        with pytest.raises(ValueError, match="design names"):
            engine.evaluate_many("356.sp", [{}, {}], ["only-one"])


# ---------------------------------------------------------------------------
# The stacked single-pass profiling contract.
# ---------------------------------------------------------------------------
ALL_ALGORITHMS = ("bpc", "bdi", "fpc", "cpack", "zeroblock")


def _algorithm(name):
    from repro.compression import (
        BDICompressor,
        BPCCompressor,
        CPackCompressor,
        FPCCompressor,
        ZeroBlockCompressor,
    )

    return {
        "bpc": BPCCompressor,
        "bdi": BDICompressor,
        "fpc": FPCCompressor,
        "cpack": CPackCompressor,
        "zeroblock": ZeroBlockCompressor,
    }[name]()


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_stacked_sizes_match_per_allocation_calls(name):
    """The bulk pass over the stacked run is element-wise identical to
    one compressed_sizes call per (allocation, snapshot) cell — the
    property the stacked profiler build rests on."""
    from repro.compression.base import as_blocks

    algorithm = _algorithm(name)
    runs = random_snapshots(17, snapshots=3)
    cells = [alloc.data for run in runs for alloc in run.allocations]
    stacked = np.concatenate([as_blocks(cell) for cell in cells], axis=0)
    bulk = algorithm.compressed_sizes(stacked)
    per_cell = np.concatenate(
        [algorithm.compressed_sizes(cell) for cell in cells]
    )
    assert bulk.shape == per_cell.shape
    assert (bulk == per_cell).all()


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_stacked_tensor_matches_per_allocation_histograms(name):
    """End to end: the stacked tensor build equals per-cell legacy
    histogram construction for every registered algorithm."""
    from repro.core.profiler import tensor_from_snapshots

    algorithm = _algorithm(name)
    runs = random_snapshots(23, snapshots=3)
    tensor = tensor_from_snapshots(f"stacked-{name}", runs, algorithm)
    for snapshot_index, run in enumerate(runs):
        for alloc in run.allocations:
            legacy = SectorHistogram.from_sizes(
                algorithm.compressed_sizes(alloc.data)
            )
            position = tensor.index(alloc.name)
            assert (
                tensor.counts[position, snapshot_index]
                == legacy.sector_counts
            ).all()
            assert (
                tensor.zero_fit[position, snapshot_index] == legacy.zero_fit
            )


def test_one_bulk_call_per_benchmark_and_algorithm():
    """The bulk-compression counter pins the stacked-pass contract:
    one compressed_sizes call per (benchmark, config, algorithm),
    memo hits adding none."""
    from repro.compression.bdi import BDICompressor
    from repro.core.profiler import bulk_compression_call_count, profile_tensor

    clear_profile_cache()
    before = bulk_compression_call_count()
    for benchmark in ("356.sp", "354.cg"):
        for algorithm in (None, BDICompressor()):
            profile_tensor(benchmark, TINY, algorithm)
    assert bulk_compression_call_count() - before == 4
    profile_tensor("356.sp", TINY)  # memo hit: no new bulk call
    assert bulk_compression_call_count() - before == 4


def test_bulk_profile_sizes_a_repeated_benchmark_once():
    """A benchmark listed twice is gathered, sized and built once."""
    from repro.core.profiler import bulk_compression_call_count, profile_tensors_bulk

    clear_profile_cache()
    passes, bulk = profile_pass_count(), bulk_compression_call_count()
    tensors = profile_tensors_bulk(["VGG16", "VGG16"], TINY)
    assert list(tensors) == ["VGG16"]
    assert profile_pass_count() - passes == 1
    assert bulk_compression_call_count() - bulk == 1


# ---------------------------------------------------------------------------
# The "profile once" contract (ISSUE acceptance criterion).
# ---------------------------------------------------------------------------
def test_threshold_sweep_profiles_reference_exactly_once():
    from repro.analysis.compression_study import fig9_benchmark
    from repro.core.profiler import bulk_compression_call_count

    clear_profile_cache()
    generated_before = generation_count()
    passes_before = profile_pass_count()
    bulk_before = bulk_compression_call_count()

    sweep = fig9_benchmark("356.sp", EIGHT_THRESHOLDS, TINY)
    assert len(sweep) == len(EIGHT_THRESHOLDS)

    generated = generation_count() - generated_before
    passes = profile_pass_count() - passes_before
    bulk = bulk_compression_call_count() - bulk_before
    # One profile-role pass + one reference-role pass, ten dumps each —
    # regardless of how many thresholds the sweep evaluates — and each
    # pass compresses its whole stacked run in a single bulk call.
    assert passes == 2
    assert generated == 2 * TINY.snapshots
    assert bulk == 2


# ---------------------------------------------------------------------------
# Golden digests: the refactor is bit-identical to the legacy pipeline.
# ---------------------------------------------------------------------------
def test_fig7_golden_digest():
    study = ExperimentRunner().run(
        "compression.fig7",
        {"benchmarks": GOLDEN_BENCHMARKS, "config": TINY},
    )
    assert result_digest(study) == GOLDEN_FIG7_TINY


def test_fig9_golden_digest():
    sweep = ExperimentRunner().run(
        "compression.fig9",
        {
            "benchmarks": GOLDEN_BENCHMARKS,
            "thresholds": EIGHT_THRESHOLDS,
            "config": TINY,
        },
    )
    assert result_digest(sweep) == GOLDEN_FIG9_TINY


def test_fig7_full_suite_golden_digest():
    """The canonical sweep digest (all benchmarks, CI smoke scale)."""
    study = ExperimentRunner().run(
        "compression.fig7",
        {"config": SnapshotConfig(scale=3.0517578125e-05)},
    )
    assert result_digest(study) == GOLDEN_FIG7_CI_SCALE
