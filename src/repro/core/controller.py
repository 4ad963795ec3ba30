"""The Buddy Compression engine facade.

:class:`BuddyCompressor` drives the paper's full static pipeline for a
benchmark: profile on the smaller dataset, pick per-allocation target
ratios for a design point, then evaluate the annotated program on the
reference dataset — compression ratio achieved, and the fraction of
memory-entries (and sectors) that must be sourced from buddy-memory
at every snapshot (Figs. 7, 8, 9).

Both the profile and the reference run are reduced to columnar
:class:`~repro.core.profile_tensor.ProfileTensor` form exactly once
per process (see :func:`repro.core.profiler.profile_tensor`), and
:meth:`BuddyCompressor.evaluate_many` evaluates a whole batch of
selections — a threshold or design-point sweep — as array reductions
over that single reference tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.compression.base import CompressionAlgorithm
from repro.compression.bpc import BPCCompressor
from repro.core import targets as targets_mod
from repro.core.allocator import BuddyAllocator
from repro.core.entry import TargetRatio
from repro.core.profile_tensor import ProfileTensor
from repro.core.profiler import BenchmarkProfile, profile_tensor
from repro.core.targets import DesignPoint
from repro.units import GIB, MEMORY_ENTRY_BYTES
from repro.workloads.snapshots import SnapshotConfig, generate_run


@dataclass(frozen=True)
class BuddyConfig:
    """Engine configuration (paper defaults)."""

    threshold: float = targets_mod.DEFAULT_THRESHOLD
    zero_tolerance: float = targets_mod.ZERO_PAGE_TOLERANCE
    naive_overflow_cap: float = targets_mod.NAIVE_OVERFLOW_CAP
    max_overall_ratio: float = targets_mod.MAX_OVERALL_RATIO
    snapshot_config: SnapshotConfig = field(default_factory=SnapshotConfig)


@dataclass
class SnapshotTraffic:
    """Buddy-memory traffic of one reference snapshot."""

    index: int
    entry_fraction: float  # fraction of entries needing any buddy access
    sector_fraction: float  # overflow sectors per entry (traffic weight)


@dataclass
class EvaluationResult:
    """Outcome of evaluating one design point on one benchmark."""

    benchmark: str
    design: str
    selection: dict[str, TargetRatio]
    compression_ratio: float
    per_snapshot: list[SnapshotTraffic]

    @property
    def buddy_access_fraction(self) -> float:
        """Mean fraction of entries requiring buddy accesses."""
        if not self.per_snapshot:
            return 0.0
        return float(np.mean([s.entry_fraction for s in self.per_snapshot]))

    @property
    def buddy_sector_fraction(self) -> float:
        """Mean overflow sectors per entry (traffic-weighted)."""
        if not self.per_snapshot:
            return 0.0
        return float(np.mean([s.sector_fraction for s in self.per_snapshot]))


#: Bulk selection-evaluation calls issued by this process.  One call
#: evaluates any number of (tensor, selections) groups, so a batched
#: server answering N coalesced requests advances this exactly once
#: per admission batch — the coalescing contract is pinned against it
#: the same way the profiler pins ``bulk_compression_call_count``.
_EVALUATE_BULK_CALLS = 0


def evaluate_bulk_call_count() -> int:
    """Bulk selection evaluations executed by this process."""
    return _EVALUATE_BULK_CALLS


def record_evaluate_bulk_call() -> None:
    """Record one bulk selection-evaluation call."""
    global _EVALUATE_BULK_CALLS
    _EVALUATE_BULK_CALLS += 1


def evaluate_selections_batch(groups) -> list[list[EvaluationResult]]:
    """Evaluate many selection groups in ONE bulk call.

    ``groups`` is a sequence of ``(reference, benchmark, selections,
    design_names)`` tuples, each pairing one reference
    :class:`~repro.core.profile_tensor.ProfileTensor` with the
    selections to measure against it.  Per group the result list is
    element-wise identical to
    :meth:`BuddyCompressor.evaluate_many` — the batch form exists so
    concurrent callers (the advisor service's admission queue) can
    coalesce their evaluations into a single counted call; the
    counter-pinned tests assert N coalesced requests advance
    :func:`evaluate_bulk_call_count` at most ``ceil(N / max_batch)``
    times.
    """
    record_evaluate_bulk_call()
    out: list[list[EvaluationResult]] = []
    for reference, benchmark, selections, design_names in groups:
        results = []
        for selection, design_name in zip(selections, design_names):
            indices = reference.selection_indices(selection)
            entry_fractions, sector_fractions = reference.traffic(indices)
            per_snapshot = [
                SnapshotTraffic(index, float(entry), float(sectors))
                for index, (entry, sectors) in enumerate(
                    zip(entry_fractions, sector_fractions)
                )
            ]
            results.append(
                EvaluationResult(
                    benchmark=benchmark,
                    design=design_name,
                    selection=selection,
                    compression_ratio=reference.selection_ratio(indices),
                    per_snapshot=per_snapshot,
                )
            )
        out.append(results)
    return out


class BuddyCompressor:
    """Profile / annotate / evaluate pipeline for one configuration."""

    def __init__(
        self,
        config: BuddyConfig | None = None,
        algorithm: CompressionAlgorithm | None = None,
    ) -> None:
        self.config = config or BuddyConfig()
        self.algorithm = algorithm or BPCCompressor()

    # ------------------------------------------------------------------
    def profile(self, benchmark: str) -> BenchmarkProfile:
        """Run the profiling pass (profile-role snapshots)."""
        return BenchmarkProfile(
            profile_tensor(
                benchmark,
                self.config.snapshot_config.as_profile(),
                self.algorithm,
            )
        )

    def reference_tensor(self, benchmark: str) -> ProfileTensor:
        """The reference run's columnar profile (from the artifact store)."""
        return profile_tensor(
            benchmark, self.config.snapshot_config, self.algorithm
        )

    def select(
        self, profile: BenchmarkProfile, design: DesignPoint
    ) -> dict[str, TargetRatio]:
        """Choose target ratios for a design point."""
        tensor = targets_mod.as_tensor(profile)
        if design.per_allocation:
            indices = targets_mod.select_per_allocation_indices(
                tensor, (design.threshold,)
            )[0]
        else:
            indices = targets_mod.select_naive_indices(
                tensor, self.config.naive_overflow_cap
            )
        if design.zero_page:
            indices = targets_mod.apply_zero_page_indices(
                indices,
                tensor,
                self.config.zero_tolerance,
                self.config.max_overall_ratio,
            )
        return tensor.selection_from_indices(indices)

    def evaluate(
        self,
        benchmark: str,
        selection: dict[str, TargetRatio],
        design_name: str = "custom",
    ) -> EvaluationResult:
        """Measure a selection against the reference run."""
        return self.evaluate_many(benchmark, [selection], [design_name])[0]

    def evaluate_many(
        self,
        benchmark: str,
        selections: Sequence[dict[str, TargetRatio]],
        design_names: Sequence[str] | None = None,
    ) -> list[EvaluationResult]:
        """Measure many selections against one reference profiling pass.

        The reference run is reduced to its profile tensor once; every
        selection is then a pair of array reductions (capacity ratio
        and per-snapshot traffic), so a sweep's cost is one profiling
        pass plus O(selections) arithmetic on compact arrays.
        """
        if design_names is None:
            design_names = ["custom"] * len(selections)
        if len(design_names) != len(selections):
            raise ValueError(
                f"{len(design_names)} design names for "
                f"{len(selections)} selections"
            )
        reference = self.reference_tensor(benchmark)
        return evaluate_selections_batch(
            [(reference, benchmark, selections, design_names)]
        )[0]

    def run(
        self, benchmark: str, design: DesignPoint = targets_mod.FINAL
    ) -> EvaluationResult:
        """Full pipeline for one benchmark and design point."""
        profile = self.profile(benchmark)
        selection = self.select(profile, design)
        return self.evaluate(benchmark, selection, design.name)

    # ------------------------------------------------------------------
    def place(
        self,
        benchmark: str,
        selection: dict[str, TargetRatio],
        device_capacity: int = 12 * GIB,
    ) -> BuddyAllocator:
        """Build the device + carve-out layout for a selection.

        Uses the reference run's allocation sizes; raises
        :class:`repro.core.allocator.OutOfMemoryError` if the selection
        cannot fit, which is how capacity experiments detect failure.
        """
        snapshot = next(iter(generate_run(benchmark, self.config.snapshot_config)))
        allocator = BuddyAllocator(device_capacity=device_capacity)
        for alloc in snapshot.allocations:
            allocator.allocate(
                alloc.name,
                alloc.entries * MEMORY_ENTRY_BYTES,
                selection[alloc.name],
            )
        return allocator
