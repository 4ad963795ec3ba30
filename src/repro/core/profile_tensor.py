"""Columnar profiling data: the pipeline's canonical representation.

The paper's profiler "periodically calculates a histogram of
compressed memory-entries per allocation", and every design-point
decision (Figs. 7-9) is a reduction over those histograms.  Rather
than materialising one Python histogram object per allocation per
snapshot, :class:`ProfileTensor` keeps the whole profile of a
benchmark run as dense arrays::

    counts    (allocations, snapshots, sector-buckets)  int64
    zero_fit  (allocations, snapshots)                  int64
    fractions (allocations,)                            float64

Selection policies (:mod:`repro.core.targets`) and design-point
evaluation (:mod:`repro.core.controller`) are vectorised reductions
over this tensor, so a threshold or design-point sweep profiles the
reference run once and evaluates every point as array ops.

Bit-compatibility contract: every reduction here reproduces the exact
IEEE-754 operation sequence of a per-(allocation, snapshot) histogram
object (same integer divisions, same accumulation order over
allocations), so results match that slow form bit for bit and cached
digests stay valid.  The per-object form is the test oracle
(``tests/profile_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from repro.core.entry import TargetRatio
from repro.units import MEMORY_ENTRY_BYTES, SECTORS_PER_ENTRY

#: Canonical target order for the tensor's target axis.
TARGET_ORDER: tuple[TargetRatio, ...] = tuple(TargetRatio)

#: Index of each target on the target axis.
TARGET_INDEX: dict[TargetRatio, int] = {
    target: index for index, target in enumerate(TARGET_ORDER)
}

#: Sector cost of each bucket (bucket b holds entries of b+1 sectors).
_SECTOR_WEIGHTS = np.arange(1, SECTORS_PER_ENTRY + 1, dtype=np.int64)

#: ``(4, T)``: 1 where a bucket's entries overflow a target (need more
#: sectors than it keeps resident).  The 16x column is replaced by the
#: zero-fit form in :attr:`ProfileTensor.overflow_fractions`.
_OVERFLOWING = np.array(
    [
        [int(sectors > target.device_sectors) for target in TARGET_ORDER]
        for sectors in _SECTOR_WEIGHTS
    ],
    dtype=np.int64,
)

#: ``(4, T)`` overflow sectors per entry of each bucket for each
#: target; for 16x the whole entry, less its zero-page slot later.
_OVERFLOW_SECTORS = np.maximum(
    0,
    _SECTOR_WEIGHTS[:, None]
    - np.array([target.device_sectors for target in TARGET_ORDER]),
)

#: Position of the 16x zero-page class on the target axis.
_X16 = TARGET_INDEX[TargetRatio.X16]

#: Device-resident bytes per entry of each target, on the target axis.
_DEVICE_BYTES = np.array(
    [target.device_bytes for target in TARGET_ORDER], dtype=np.int64
)


@dataclass(eq=False)
class ProfileTensor:
    """One benchmark run's complete profile in columnar form.

    Attributes:
        benchmark: Benchmark name.
        names: Allocation names, in first-appearance (spec) order —
            the order every legacy accumulation followed.
        fractions: ``(A,)`` footprint fraction per allocation.
        counts: ``(A, S, 4)`` entries per sector bucket, per
            allocation and snapshot.
        zero_fit: ``(A, S)`` entries fitting the 8 B zero-page slot
            (these also appear in bucket 0 of ``counts``).
    """

    benchmark: str
    names: tuple[str, ...]
    fractions: np.ndarray
    counts: np.ndarray
    zero_fit: np.ndarray

    def __post_init__(self) -> None:
        self.fractions = np.asarray(self.fractions, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.zero_fit = np.asarray(self.zero_fit, dtype=np.int64)
        if self.counts.ndim != 3 or self.counts.shape[2] != SECTORS_PER_ENTRY:
            raise ValueError(
                f"counts must be (A, S, {SECTORS_PER_ENTRY}); "
                f"got {self.counts.shape}"
            )
        if self.zero_fit.shape != self.counts.shape[:2]:
            raise ValueError(
                f"zero_fit shape {self.zero_fit.shape} does not match "
                f"counts {self.counts.shape[:2]}"
            )
        if len(self.names) != self.counts.shape[0]:
            raise ValueError("names must match the allocation axis")

    @classmethod
    def from_payload(
        cls,
        benchmark: str,
        names,
        fractions,
        counts,
        zero_fit,
    ) -> "ProfileTensor":
        """Build a tensor from untrusted raw arrays, validating hard.

        The advisor service accepts client-supplied histograms; this
        is the single choke point where they are checked (finite,
        integral, non-negative, shape-consistent, ``zero_fit`` within
        bucket 0, at least one snapshot, and at least one entry per
        allocation over the run — a profile without evidence would be
        answered with the most aggressive targets) before entering the
        pipeline.  Raises
        :class:`ValueError` with a client-presentable message.
        """
        names = tuple(str(name) for name in names)
        if not names:
            raise ValueError("profile must contain at least one allocation")
        if len(dict.fromkeys(names)) != len(names):
            raise ValueError("allocation names must be unique")

        def as_int_array(label: str, raw, ndim: int) -> np.ndarray:
            array = np.asarray(raw)
            if array.dtype.kind not in "iuf" or array.dtype.kind == "c":
                raise ValueError(f"{label} must be numeric")
            if array.ndim != ndim:
                raise ValueError(f"{label} must be {ndim}-dimensional")
            values = array.astype(np.float64)
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{label} must be finite (no NaN/inf)")
            if np.any(values < 0):
                raise ValueError(f"{label} must be non-negative")
            if not np.all(values == np.floor(values)):
                raise ValueError(f"{label} must be whole entry counts")
            return values.astype(np.int64)

        counts = as_int_array("counts", counts, 3)
        if counts.shape[2] != SECTORS_PER_ENTRY:
            raise ValueError(
                f"counts must have {SECTORS_PER_ENTRY} sector buckets; "
                f"got {counts.shape[2]}"
            )
        if counts.shape[0] != len(names):
            raise ValueError(
                f"counts covers {counts.shape[0]} allocations for "
                f"{len(names)} names"
            )
        if counts.shape[1] == 0:
            raise ValueError("profile must cover at least one snapshot")
        has_entries = counts.any(axis=(1, 2))
        if not has_entries.all():
            empty = names[int(np.argmin(has_entries))]
            raise ValueError(
                f"allocation {empty!r} has no entries over the run"
            )
        zero_fit = as_int_array("zero_fit", zero_fit, 2)
        if zero_fit.shape != counts.shape[:2]:
            raise ValueError(
                f"zero_fit shape {zero_fit.shape} does not match "
                f"counts {counts.shape[:2]}"
            )
        if np.any(zero_fit > counts[:, :, 0]):
            raise ValueError(
                "zero_fit exceeds bucket-0 counts (zero-page entries "
                "are a subset of one-sector entries)"
            )
        fractions = np.asarray(fractions, dtype=np.float64)
        if fractions.ndim != 1 or fractions.size != len(names):
            raise ValueError("fractions must give one value per allocation")
        if not np.all(np.isfinite(fractions)):
            raise ValueError("fractions must be finite (no NaN/inf)")
        if np.any(fractions < 0) or float(fractions.sum()) <= 0.0:
            raise ValueError(
                "fractions must be non-negative and sum to a positive "
                "footprint"
            )
        return cls(
            benchmark=str(benchmark),
            names=names,
            fractions=fractions,
            counts=counts,
            zero_fit=zero_fit,
        )

    # -- shape -----------------------------------------------------------
    @property
    def allocation_count(self) -> int:
        return self.counts.shape[0]

    @property
    def snapshot_count(self) -> int:
        return self.counts.shape[1]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(
                f"no allocation {name!r} in profile of {self.benchmark}"
            ) from None

    # -- basic reductions ------------------------------------------------
    @cached_property
    def totals(self) -> np.ndarray:
        """``(A, S)`` total entries per allocation and snapshot."""
        return self.counts.sum(axis=2)

    @cached_property
    def merged_counts(self) -> np.ndarray:
        """``(A, 4)`` run-merged sector counts per allocation."""
        return self.counts.sum(axis=1)

    @cached_property
    def program_counts(self) -> np.ndarray:
        """``(4,)`` whole-program sector counts (naive design's view)."""
        return self.counts.sum(axis=(0, 1))

    # -- per-target reductions -------------------------------------------
    @cached_property
    def overflow_fractions(self) -> np.ndarray:
        """``(T, A, S)`` fraction of entries overflowing each target.

        Integer overflow count divided by the integer total, and the
        16x class computed as ``1.0 - zero_fit / total``; empty cells
        report 0.0.  The counts of every target come from one integer
        product with the bucket masks, exact in any summation order.
        """
        totals = self.totals
        safe = np.maximum(totals, 1)
        fractions = np.moveaxis(self.counts @ _OVERFLOWING, -1, 0) / safe
        fractions[_X16] = 1.0 - self.zero_fit / safe
        return np.ascontiguousarray(np.where(totals > 0, fractions, 0.0))

    @cached_property
    def sector_fractions(self) -> np.ndarray:
        """``(T, A, S)`` overflow sectors per entry for each target.

        The integer overflow-sector dot product divided by the total
        (for 16x, the whole entry less its zero-page slot); empty cells
        report 0.0.
        """
        totals = self.totals
        safe = np.maximum(totals, 1)
        remote = np.moveaxis(self.counts @ _OVERFLOW_SECTORS, -1, 0)
        remote[_X16] -= self.zero_fit
        return np.ascontiguousarray(np.where(totals > 0, remote / safe, 0.0))

    @cached_property
    def worst_overflow(self) -> np.ndarray:
        """``(T, A)`` max-over-snapshots overflow fraction per target.

        The profiler's conservative view (355.seismic's drift); empty
        runs report 1.0, matching the legacy ``max(..., default=1.0)``.
        """
        if self.snapshot_count == 0:
            return np.ones((len(TARGET_ORDER), self.allocation_count))
        return self.overflow_fractions.max(axis=2)

    # -- selection helpers -----------------------------------------------
    def selection_indices(
        self, selection: Mapping[str, TargetRatio]
    ) -> np.ndarray:
        """``(A,)`` target-axis indices for a name -> ratio selection."""
        return np.array(
            [TARGET_INDEX[selection[name]] for name in self.names],
            dtype=np.intp,
        )

    def selection_from_indices(
        self, indices: Iterable[int]
    ) -> dict[str, TargetRatio]:
        """Name -> ratio dictionary from target-axis indices."""
        return {
            name: TARGET_ORDER[int(index)]
            for name, index in zip(self.names, indices)
        }

    @cached_property
    def _footprint(self) -> float:
        """Footprint bytes per entry of the whole run, allocation order."""
        return float(np.add.accumulate(self.fractions * MEMORY_ENTRY_BYTES)[-1])

    def selection_ratio(self, indices: np.ndarray):
        """Overall compression ratio of a selection (capacity metric).

        Footprint divided by the device memory the annotated
        allocations reserve.  ``indices`` is one ``(A,)`` selection
        (a float comes back) or a ``(K, A)`` batch of them (a ``(K,)``
        array).  Both sums run left to right in allocation order —
        ``np.add.accumulate`` is sequential — so every row repeats the
        scalar accumulation cached digests pin, bit for bit.
        """
        rows = np.asarray(indices, dtype=np.intp)
        device = np.add.accumulate(
            self.fractions * _DEVICE_BYTES[rows], axis=-1
        )[..., -1]
        empty = device == 0
        ratios = np.where(
            empty, 1.0, self._footprint / np.where(empty, 1.0, device)
        )
        return float(ratios) if rows.ndim == 1 else ratios

    def traffic(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-snapshot buddy traffic of a selection or a batch of them.

        Returns ``(entry_fractions, sector_fractions)`` — each ``(S,)``
        for one ``(A,)`` selection, ``(K, S)`` for a ``(K, A)`` batch —
        reproducing the legacy evaluation loop bit for bit: per
        allocation the integer-count fraction is scaled back by its
        total, accumulated over allocations in order, then normalised
        by the snapshot's entry count.
        """
        rows = np.asarray(indices, dtype=np.intp)
        totals = self.totals
        arange = np.arange(self.allocation_count)
        weighted_entries = self.overflow_fractions[rows, arange, :] * totals
        weighted_sectors = self.sector_fractions[rows, arange, :] * totals
        # Sequential accumulation over the allocation axis: float
        # addition is not associative and digests are pinned to the
        # legacy left-to-right order, which ``np.add.accumulate``
        # keeps (``np.sum`` would sum pairwise).
        overflowing = np.add.accumulate(weighted_entries, axis=-2)[..., -1, :]
        sectors = np.add.accumulate(weighted_sectors, axis=-2)[..., -1, :]
        entries = np.maximum(totals.sum(axis=0), 1)
        return overflowing / entries, sectors / entries


@dataclass(eq=False)
class EntryStateTensor:
    """Per-entry compression facts of one memory dump, in columnar form.

    The simulators need finer grain than :class:`ProfileTensor`'s
    histograms: for every 128 B entry of a placed benchmark, how many
    sectors it compresses to and whether it fits the 8 B zero slot —
    plus the allocation layout the trace generator derives addresses
    from.  This object is that state, reduced from one
    :class:`~repro.workloads.snapshots.MemorySnapshot` (a few KB of
    int8/bool arrays versus the dump's multi-MB data words) and cached
    alongside the profile tensors (see
    :func:`repro.core.profiler.entry_state_tensor`), so the perf and
    correlation studies never regenerate snapshots.

    Attributes:
        benchmark: Benchmark name.
        index: Snapshot (dump) index the state was reduced from.
        names: Allocation names in placement order.
        fractions: ``(A,)`` footprint fraction per allocation.
        access_weights: ``(A,)`` dynamic access intensity per byte.
        entry_counts: ``(A,)`` memory-entries per allocation.
        sectors: ``(N,)`` compressed sectors per entry (1..4), in
            allocation placement order.
        zero_fit: ``(N,)`` whether each entry fits the 8 B zero slot.
    """

    benchmark: str
    index: int
    names: tuple[str, ...]
    fractions: np.ndarray
    access_weights: np.ndarray
    entry_counts: np.ndarray
    sectors: np.ndarray
    zero_fit: np.ndarray

    def __post_init__(self) -> None:
        self.fractions = np.asarray(self.fractions, dtype=np.float64)
        self.access_weights = np.asarray(self.access_weights, dtype=np.float64)
        self.entry_counts = np.asarray(self.entry_counts, dtype=np.int64)
        self.sectors = np.asarray(self.sectors, dtype=np.int8)
        self.zero_fit = np.asarray(self.zero_fit, dtype=bool)
        if not (
            len(self.names)
            == self.fractions.size
            == self.access_weights.size
            == self.entry_counts.size
        ):
            raise ValueError("allocation-axis arrays must match names")
        if self.sectors.size != self.zero_fit.size:
            raise ValueError("sectors and zero_fit must match")
        if int(self.entry_counts.sum()) != self.sectors.size:
            raise ValueError(
                f"entry_counts sum {int(self.entry_counts.sum())} does not "
                f"cover {self.sectors.size} entries"
            )

    # -- shape -----------------------------------------------------------
    @property
    def allocation_count(self) -> int:
        return len(self.names)

    @property
    def entries(self) -> int:
        return int(self.sectors.size)

    @property
    def footprint_bytes(self) -> int:
        return self.entries * MEMORY_ENTRY_BYTES

    def allocation_ranges(self) -> dict[str, tuple[int, int]]:
        """Byte range of each allocation in placement order."""
        ranges: dict[str, tuple[int, int]] = {}
        cursor = 0
        for name, count in zip(self.names, self.entry_counts):
            size = int(count) * MEMORY_ENTRY_BYTES
            ranges[name] = (cursor, cursor + size)
            cursor += size
        return ranges

    def budget_per_entry(self, selection: Mapping[str, "TargetRatio"]) -> np.ndarray:
        """``(N,)`` device-resident sectors per entry for a selection.

        0 encodes the 16x zero class, mirroring
        :class:`repro.gpusim.compression.CompressionState` semantics.
        """
        budgets = [
            np.full(
                int(count),
                0
                if selection[name] is TargetRatio.X16
                else selection[name].device_sectors,
                dtype=np.int8,
            )
            for name, count in zip(self.names, self.entry_counts)
        ]
        if not budgets:
            return np.zeros(0, dtype=np.int8)
        return np.concatenate(budgets)
