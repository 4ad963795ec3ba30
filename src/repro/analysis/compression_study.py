"""Compressibility studies: Figs. 3, 6, 7, 8 and 9."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.bpc import BPCCompressor
from repro.compression.sectors import sectors_for_sizes
from repro.core.controller import BuddyCompressor, EvaluationResult
from repro.core.profiler import free_bytes, profile_tensor
from repro.core.targets import FINAL, DesignPoint, select_per_allocation_indices
from repro.units import ENTRIES_PER_PAGE, MEMORY_ENTRY_BYTES
from repro.workloads.catalog import get_benchmark
from repro.workloads.snapshots import SnapshotConfig, generate_snapshot


# ---------------------------------------------------------------------------
# Fig. 3 — free-size compression ratio per benchmark over its run.
# ---------------------------------------------------------------------------
@dataclass
class Fig3Row:
    benchmark: str
    is_hpc: bool
    per_snapshot: list[float]

    @property
    def mean_ratio(self) -> float:
        return float(np.mean(self.per_snapshot))


def fig3_row(benchmark: str, config: SnapshotConfig) -> Fig3Row:
    """One benchmark's Fig. 3 row (the engine's design-point unit).

    Each dump's ratio is its raw bytes over its free bytes, both read
    from the stage-0 profile pass: the entry count from the
    reference-role BPC tensor, the free bytes from
    :func:`repro.core.profiler.free_bytes`.  Integer sums, one
    division, so the ratios are Python floats.
    """
    algorithm = BPCCompressor()
    free = free_bytes(benchmark, config, algorithm).sum(axis=0)
    entries = profile_tensor(benchmark, config, algorithm).counts.sum(axis=(0, 2))
    ratios = [
        int(count) * MEMORY_ENTRY_BYTES / max(int(freed), 1)
        for count, freed in zip(entries, free)
    ]
    return Fig3Row(benchmark, get_benchmark(benchmark).is_hpc, ratios)


def fig3_plan(point: dict) -> list:
    """Fig. 3 dependency graph: the reference-role BPC tensor, whose
    build also stores the free bytes the point reads — the same node
    Figs. 7, 8 and 9 declare."""
    from repro.engine.planner import ProfileTensorSpec

    return [ProfileTensorSpec(point["benchmark"], point["config"], BPCCompressor())]


# ---------------------------------------------------------------------------
# Fig. 6 — spatial compressibility heatmap.
# ---------------------------------------------------------------------------
def fig6_heatmap(
    benchmark: str, snapshot_index: int, config: SnapshotConfig
) -> np.ndarray:
    """Sectors-per-entry heatmap: one row per 8 KB page (Fig. 6)."""
    snapshot = generate_snapshot(benchmark, snapshot_index, config)
    sizes = BPCCompressor().compressed_sizes(snapshot.stacked_data())
    sectors = sectors_for_sizes(sizes)
    pages = sectors.size // ENTRIES_PER_PAGE
    return sectors[: pages * ENTRIES_PER_PAGE].reshape(pages, ENTRIES_PER_PAGE)


# ---------------------------------------------------------------------------
# Figs. 7 / 8 / 9 — design points, temporal stability, threshold sweep.
# ---------------------------------------------------------------------------
@dataclass
class DesignPointStudy:
    """Fig. 7 dataset: one EvaluationResult per benchmark x design."""

    results: dict[str, dict[str, EvaluationResult]]

    def suite_summary(self, design: str, hpc: bool) -> tuple[float, float]:
        """(gmean ratio, mean access fraction) across a suite."""
        ratios, accesses = [], []
        for name, runs in self.results.items():
            if get_benchmark(name).is_hpc != hpc:
                continue
            result = runs[design]
            ratios.append(result.compression_ratio)
            accesses.append(result.buddy_access_fraction)
        gmean = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
        return gmean, float(np.mean(accesses)) if accesses else 0.0


def fig7_benchmark(
    benchmark: str, config: SnapshotConfig, designs: tuple[DesignPoint, ...]
) -> dict[str, EvaluationResult]:
    """One benchmark across the Fig. 7 designs.

    One profiling pass selects for every design; one reference pass
    evaluates the whole batch (:meth:`BuddyCompressor.evaluate_many`).
    """
    engine = BuddyCompressor(config)
    tensor = engine.profile(benchmark)
    selections = [engine.select(tensor, design) for design in designs]
    names = [design.name for design in designs]
    results = engine.evaluate_many(benchmark, selections, names)
    return dict(zip(names, results))


def buddy_pipeline_plan(point: dict) -> list:
    """Shared dependency graph of one Buddy static-pipeline point.

    Figs. 7, 8 and 9 all run :class:`BuddyCompressor` at the point's
    snapshot config: one profile-role tensor drives target selection
    and one reference-role tensor drives ``evaluate_many`` — the two
    executable nodes every benchmark's points share across all three
    figures (and, config permitting, across sweeps planned together).
    """
    from repro.engine.planner import ProfileTensorSpec

    benchmark = point["benchmark"]
    config = point["config"]
    algorithm = BPCCompressor()
    return [
        ProfileTensorSpec(benchmark, config.as_profile(), algorithm),
        ProfileTensorSpec(benchmark, config, algorithm),
    ]


def fig8_benchmark(benchmark: str, config: SnapshotConfig) -> EvaluationResult:
    """One benchmark's Fig. 8 run under the final design."""
    return BuddyCompressor(config).run(benchmark, FINAL)


def fig9_benchmark(
    benchmark: str, thresholds, config: SnapshotConfig
) -> dict[float, EvaluationResult]:
    """One benchmark's Fig. 9 threshold sweep.

    The whole sweep runs exactly one profiling pass and one reference
    pass: selections for every threshold reduce over a single
    worst-overflow matrix
    (:func:`repro.core.targets.select_per_allocation_indices`) and the
    batch is evaluated in one :meth:`BuddyCompressor.evaluate_many`
    call.
    """
    thresholds = tuple(thresholds)
    engine = BuddyCompressor(config)
    tensor = engine.profile(benchmark)
    batch = select_per_allocation_indices(tensor, thresholds)
    selections = [tensor.selection_from_indices(row) for row in batch]
    names = [f"threshold-{threshold:.2f}" for threshold in thresholds]
    results = engine.evaluate_many(benchmark, selections, names)
    return dict(zip(thresholds, results))
