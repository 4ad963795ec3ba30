"""Compressibility studies: Figs. 3, 6, 7, 8 and 9."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression import BPCCompressor, free_sizes_for_sizes, sectors_for_sizes
from repro.compression.zeroblock import zero_mask
from repro.core.controller import BuddyCompressor, EvaluationResult
from repro.core.targets import (
    FINAL,
    NAIVE,
    PER_ALLOCATION,
    DesignPoint,
    select_per_allocation_indices,
)
from repro.units import ENTRIES_PER_PAGE, MEMORY_ENTRY_BYTES
from repro.workloads.catalog import get_benchmark
from repro.workloads.snapshots import SnapshotConfig, generate_run, generate_snapshot


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


def free_size_study(
    benchmark: str,
    config: SnapshotConfig | None = None,
    algorithms=None,
) -> dict[str, Fig3Row]:
    """Free-size ratios of one benchmark run under several codecs.

    The run's ten dumps are generated once and their entries stacked
    into a single ``(N, 32)`` block array; every codec then sizes that
    one array with a single bulk ``compressed_sizes`` call (recorded
    against :func:`repro.core.profiler.bulk_compression_call_count`),
    and per-snapshot ratios are slice reductions over the shared size
    vector.  Entries compress independently, so the stacked pass is
    element-wise identical to the historical per-snapshot loop — the
    equivalence tests pin this — while generating each benchmark's
    blocks once instead of once per ``(benchmark, algorithm)``.
    """
    from repro.core.profiler import record_bulk_compression_call

    config = config or SnapshotConfig()
    algorithms = (
        (BPCCompressor(),) if algorithms is None else tuple(algorithms)
    )
    blocks = []
    bounds = [0]
    for snapshot in generate_run(benchmark, config):
        data = snapshot.stacked_data()
        blocks.append(data)
        bounds.append(bounds[-1] + data.shape[0])
    stacked = np.concatenate(blocks, axis=0)
    zeros = zero_mask(stacked)
    is_hpc = get_benchmark(benchmark).is_hpc

    rows: dict[str, Fig3Row] = {}
    for algorithm in algorithms:
        sizes = algorithm.compressed_sizes(stacked)
        record_bulk_compression_call()
        free = free_sizes_for_sizes(sizes, zeros)
        ratios = [
            (hi - lo) * MEMORY_ENTRY_BYTES / max(int(free[lo:hi].sum()), 1)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        rows[algorithm.name] = Fig3Row(benchmark, is_hpc, ratios)
    return rows


def fig3_row(benchmark: str, config: SnapshotConfig | None = None) -> Fig3Row:
    """One benchmark's Fig. 3 row (the engine's design-point unit)."""
    return free_size_study(benchmark, config)[BPCCompressor().name]


def fig3_plan(point: dict) -> list:
    """Fig. 3 dependency graph: the point consumes one snapshot run.

    Free-size ratios compress raw snapshot data (no tensor reduction),
    so the run is declared for sharing statistics only — there is no
    shared executable artifact to build ahead of the point.
    """
    from repro.engine.planner import SnapshotsSpec

    return [SnapshotsSpec(point["benchmark"], point["config"])]


def suite_gmean(rows: list[Fig3Row], hpc: bool) -> float:
    values = [row.mean_ratio for row in rows if row.is_hpc == hpc]
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


# ---------------------------------------------------------------------------
# Fig. 6 — spatial compressibility heatmap.
# ---------------------------------------------------------------------------
def fig6_heatmap(
    benchmark: str,
    snapshot_index: int = 5,
    config: SnapshotConfig | None = None,
) -> np.ndarray:
    """Sectors-per-entry heatmap: one row per 8 KB page (Fig. 6)."""
    config = config or SnapshotConfig()
    snapshot = generate_snapshot(benchmark, snapshot_index, config)
    sizes = BPCCompressor().compressed_sizes(snapshot.stacked_data())
    sectors = sectors_for_sizes(sizes)
    pages = sectors.size // ENTRIES_PER_PAGE
    return sectors[: pages * ENTRIES_PER_PAGE].reshape(pages, ENTRIES_PER_PAGE)


def render_heatmap(heatmap: np.ndarray, max_rows: int = 24) -> str:
    """ASCII rendering of a Fig. 6 heatmap (rows of page compressibility)."""
    glyphs = {1: ".", 2: "-", 3: "+", 4: "#"}
    step = max(1, heatmap.shape[0] // max_rows)
    lines = []
    for row in heatmap[::step][:max_rows]:
        lines.append("".join(glyphs[int(v)] for v in row))
    return "\n".join(lines)


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
    benchmark: str,
    config: SnapshotConfig | None = None,
    designs: tuple[DesignPoint, ...] = (NAIVE, PER_ALLOCATION, FINAL),
) -> dict[str, EvaluationResult]:
    """One benchmark across the Fig. 7 designs.

    One profiling pass selects for every design; one reference pass
    evaluates the whole batch (:meth:`BuddyCompressor.evaluate_many`).
    """
    engine = BuddyCompressor(config or SnapshotConfig())
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
    from repro.engine.planner import ProfileTensorSpec, SnapshotsSpec

    benchmark = point["benchmark"]
    config = point["config"]
    profile_config = config.as_profile()
    algorithm = BPCCompressor()
    return [
        ProfileTensorSpec(benchmark, profile_config, algorithm),
        ProfileTensorSpec(benchmark, config, algorithm),
        SnapshotsSpec(benchmark, profile_config),
        SnapshotsSpec(benchmark, config),
    ]


def fig8_benchmark(
    benchmark: str, config: SnapshotConfig | None = None
) -> EvaluationResult:
    """One benchmark's Fig. 8 run under the final design."""
    engine = BuddyCompressor(config or SnapshotConfig())
    return engine.run(benchmark, FINAL)


def fig9_benchmark(
    benchmark: str,
    thresholds=(0.10, 0.20, 0.30, 0.40),
    config: SnapshotConfig | None = None,
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
    engine = BuddyCompressor(config or SnapshotConfig())
    tensor = engine.profile(benchmark)
    batch = select_per_allocation_indices(tensor, thresholds)
    selections = [tensor.selection_from_indices(row) for row in batch]
    names = [f"threshold-{threshold:.2f}" for threshold in thresholds]
    results = engine.evaluate_many(benchmark, selections, names)
    return dict(zip(thresholds, results))
