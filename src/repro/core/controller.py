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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compression.base import CompressionAlgorithm
from repro.compression.bpc import BPCCompressor
from repro.core import targets as targets_mod
from repro.core.allocator import BuddyAllocator
from repro.core.entry import TargetRatio
from repro.core.profile_tensor import ProfileTensor
from repro.core.profiler import entry_state_tensor, profile_tensor
from repro.core.targets import DesignPoint
from repro.units import GIB, MEMORY_ENTRY_BYTES
from repro.workloads.snapshots import SnapshotConfig


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


@dataclass(frozen=True)
class SelectionEvaluation:
    """K selections of one reference tensor, evaluated as arrays.

    Row ``k`` is the outcome of index row ``k``: its compression ratio
    and its buddy traffic at every reference snapshot.
    """

    ratios: np.ndarray  # (K,) capacity compression ratio per row
    entry_fractions: np.ndarray  # (K, S) entries needing buddy access
    sector_fractions: np.ndarray  # (K, S) overflow sectors per entry

    def entry_means(self) -> np.ndarray:
        """``(K,)`` mean buddy-entry fraction per row.

        A mean along the contiguous last axis sums each row exactly as
        ``np.mean`` sums that row alone, so a row's mean is
        bit-identical to :attr:`EvaluationResult.buddy_access_fraction`.
        """
        return self.entry_fractions.mean(axis=-1)

    def sector_means(self) -> np.ndarray:
        """``(K,)`` mean overflow sectors per entry per row."""
        return self.sector_fractions.mean(axis=-1)


def evaluate_selections_batch(groups) -> list[SelectionEvaluation]:
    """Evaluate many selection batches in ONE bulk call.

    ``groups`` is a sequence of ``(reference, indices)`` pairs, each
    pairing one reference
    :class:`~repro.core.profile_tensor.ProfileTensor` with a ``(K, A)``
    matrix of target-axis index rows to measure against it.  Each
    group is one array pass over its K rows
    (:meth:`~repro.core.profile_tensor.ProfileTensor.selection_ratio`
    and :meth:`~repro.core.profile_tensor.ProfileTensor.traffic`).
    The batch form exists so concurrent callers (the advisor service's
    admission queue) can coalesce their evaluations into a single
    counted call; the counter-pinned tests assert N coalesced requests
    advance :func:`evaluate_bulk_call_count` at most
    ``ceil(N / max_batch)`` times.
    """
    record_evaluate_bulk_call()
    out: list[SelectionEvaluation] = []
    for reference, rows in groups:
        entry_fractions, sector_fractions = reference.traffic(rows)
        out.append(
            SelectionEvaluation(
                ratios=reference.selection_ratio(rows),
                entry_fractions=entry_fractions,
                sector_fractions=sector_fractions,
            )
        )
    return out


class BuddyCompressor:
    """Profile / annotate / evaluate pipeline for one configuration.

    ``snapshot_config`` is the reference run's snapshot configuration
    (paper defaults when omitted); profiling uses its profile-role
    form (:meth:`~repro.workloads.snapshots.SnapshotConfig.as_profile`).
    """

    def __init__(
        self,
        snapshot_config: SnapshotConfig | None = None,
        algorithm: CompressionAlgorithm | None = None,
    ) -> None:
        self.snapshot_config = snapshot_config or SnapshotConfig()
        self.algorithm = algorithm or BPCCompressor()

    # ------------------------------------------------------------------
    def profile(self, benchmark: str) -> ProfileTensor:
        """Run the profiling pass (profile-role snapshots)."""
        return profile_tensor(
            benchmark, self.snapshot_config.as_profile(), self.algorithm
        )

    def reference_tensor(self, benchmark: str) -> ProfileTensor:
        """The reference run's columnar profile (from the artifact store)."""
        return profile_tensor(benchmark, self.snapshot_config, self.algorithm)

    def select(
        self, tensor: ProfileTensor, design: DesignPoint
    ) -> dict[str, TargetRatio]:
        """Choose target ratios for a design point."""
        return tensor.selection_from_indices(
            targets_mod.select_indices(tensor, design)
        )

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

        The reference run is reduced to its profile tensor once; the
        selections become one ``(K, A)`` index matrix evaluated in one
        array pass (capacity ratio and per-snapshot traffic), so a
        sweep's cost is one profiling pass plus arithmetic on compact
        arrays.
        """
        if design_names is None:
            design_names = ["custom"] * len(selections)
        if len(design_names) != len(selections):
            raise ValueError(
                f"{len(design_names)} design names for "
                f"{len(selections)} selections"
            )
        reference = self.reference_tensor(benchmark)
        rows = np.array(
            [reference.selection_indices(selection) for selection in selections],
            dtype=np.intp,
        ).reshape(len(selections), reference.allocation_count)
        batch = evaluate_selections_batch([(reference, rows)])[0]
        results = []
        for row, (selection, design_name) in enumerate(
            zip(selections, design_names)
        ):
            per_snapshot = [
                SnapshotTraffic(index, entry, sectors)
                for index, (entry, sectors) in enumerate(
                    zip(
                        batch.entry_fractions[row].tolist(),
                        batch.sector_fractions[row].tolist(),
                    )
                )
            ]
            results.append(
                EvaluationResult(
                    benchmark=benchmark,
                    design=design_name,
                    selection=selection,
                    compression_ratio=float(batch.ratios[row]),
                    per_snapshot=per_snapshot,
                )
            )
        return results

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

        Uses the allocation sizes of the reference run's first dump (its
        stored entry-state tensor); raises
        :class:`repro.core.allocator.OutOfMemoryError` if the selection
        cannot fit, which is how capacity experiments detect failure.
        """
        layout = entry_state_tensor(benchmark, self.snapshot_config, 0)
        allocator = BuddyAllocator(device_capacity=device_capacity)
        for name, entries in zip(layout.names, layout.entry_counts):
            allocator.allocate(
                name, int(entries) * MEMORY_ENTRY_BYTES, selection[name]
            )
        return allocator
