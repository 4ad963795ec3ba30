"""The per-histogram oracle the columnar profile is checked against.

The paper's profiler "periodically calculates a histogram of
compressed memory-entries per allocation"; target ratios are chosen
from these histograms.  :class:`SectorHistogram` is exactly that
object — counts of entries per sector bucket plus the count that fits
the 8 B zero-page slot — one Python object per (allocation, snapshot)
cell: the slow, obviously-correct form of the reductions
:class:`repro.core.profile_tensor.ProfileTensor` vectorises.  Every
tensor reduction must match it bit for bit (``test_columnar.py``).

It imports none of ``repro.core.profile_tensor``, ``targets``,
``profiler`` or ``controller`` — the code it checks — so a defect
there cannot leak into the oracle (``test_oracle_is_independent`` in
``test_columnar.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.sectors import sectors_for_sizes
from repro.core.entry import TargetRatio
from repro.units import SECTORS_PER_ENTRY, ZERO_CLASS_BYTES


@dataclass
class SectorHistogram:
    """Counts of memory-entries by compressed sector footprint.

    Attributes:
        sector_counts: ``(4,)`` counts of entries needing 1..4 sectors.
        zero_fit: Entries whose compressed size is at most 8 B (these
            also appear in ``sector_counts[0]``).
    """

    sector_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(SECTORS_PER_ENTRY, dtype=np.int64)
    )
    zero_fit: int = 0

    @classmethod
    def from_sizes(cls, sizes: np.ndarray) -> "SectorHistogram":
        """Build a histogram from raw compressed sizes in bytes."""
        sizes = np.asarray(sizes, dtype=np.int64)
        sectors = sectors_for_sizes(sizes)
        counts = np.bincount(sectors - 1, minlength=SECTORS_PER_ENTRY).astype(
            np.int64
        )
        return cls(counts, int((sizes <= ZERO_CLASS_BYTES).sum()))

    @property
    def total(self) -> int:
        return int(self.sector_counts.sum())

    def merge(self, other: "SectorHistogram") -> "SectorHistogram":
        """Histogram of the union of both entry populations."""
        return SectorHistogram(
            self.sector_counts + other.sector_counts,
            self.zero_fit + other.zero_fit,
        )

    def overflow_fraction(self, target: TargetRatio) -> float:
        """Fraction of entries that would need buddy accesses at ``target``."""
        if self.total == 0:
            return 0.0
        if target is TargetRatio.X16:
            return 1.0 - self.zero_fit / self.total
        overflowing = int(self.sector_counts[target.device_sectors :].sum())
        return overflowing / self.total

    def buddy_sector_fraction(self, target: TargetRatio) -> float:
        """Average overflow sectors per entry at ``target``.

        Unlike :meth:`overflow_fraction` (what fraction of entries
        touch buddy-memory at all), this weights by how many sectors
        each overflowing entry sources remotely — the quantity the
        traffic model needs.
        """
        if self.total == 0:
            return 0.0
        sectors = np.arange(1, SECTORS_PER_ENTRY + 1)
        if target is TargetRatio.X16:
            # Non-zero-fit entries fetch all their compressed sectors
            # remotely.  Approximate zero-fit entries as 1-sector.
            remote = self.sector_counts @ sectors - self.zero_fit
            return float(remote) / self.total
        overflow = np.maximum(0, sectors - target.device_sectors)
        return float(self.sector_counts @ overflow) / self.total

    def mean_sectors(self) -> float:
        """Average compressed sectors per entry."""
        if self.total == 0:
            return 0.0
        sectors = np.arange(1, SECTORS_PER_ENTRY + 1)
        return float(self.sector_counts @ sectors) / self.total
