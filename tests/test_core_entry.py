"""Tests for target-ratio arithmetic and sector histograms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.entry import ALLOWED_TARGETS, TargetRatio
from repro.units import SECTORS_PER_ENTRY
from profile_oracle import SectorHistogram


def buddy_sectors_needed(
    entry_sectors: int, target: TargetRatio, fits_zero_slot: bool = False
) -> int:
    """Sectors of an entry fetched from buddy memory under ``target``.

    ``fits_zero_slot`` says whether the entry compresses into the 16x
    class's 8 B slot; anything larger sources its compressed sectors
    entirely from buddy storage.
    """
    if not 1 <= entry_sectors <= SECTORS_PER_ENTRY:
        raise ValueError(f"entry sectors {entry_sectors} outside 1..4")
    if target is TargetRatio.X16:
        return 0 if fits_zero_slot else entry_sectors
    return max(0, entry_sectors - target.device_sectors)


class TestTargetRatio:
    @pytest.mark.parametrize(
        "target,sectors,device,buddy",
        [
            (TargetRatio.X1, 4, 128, 0),
            (TargetRatio.X1_33, 3, 96, 32),
            (TargetRatio.X2, 2, 64, 64),
            (TargetRatio.X4, 1, 32, 96),
            (TargetRatio.X16, 0, 8, 120),
        ],
    )
    def test_sector_arithmetic(self, target, sectors, device, buddy):
        assert target.device_sectors == sectors
        assert target.device_bytes == device
        assert target.buddy_bytes == buddy

    def test_nominal_ratios(self):
        assert TargetRatio.X1.ratio == pytest.approx(1.0)
        assert TargetRatio.X1_33.ratio == pytest.approx(4 / 3)
        assert TargetRatio.X2.ratio == pytest.approx(2.0)
        assert TargetRatio.X4.ratio == pytest.approx(4.0)
        assert TargetRatio.X16.ratio == pytest.approx(16.0)

    def test_allowed_targets_best_first(self):
        ratios = [t.ratio for t in ALLOWED_TARGETS]
        assert ratios == sorted(ratios, reverse=True)
        assert TargetRatio.X16 not in ALLOWED_TARGETS

    def test_from_device_sectors(self):
        for target in ALLOWED_TARGETS:
            assert TargetRatio.from_device_sectors(target.device_sectors) is target
        with pytest.raises(ValueError):
            TargetRatio.from_device_sectors(0)

    @given(st.integers(1, 4))
    def test_buddy_sectors_zero_when_fitting(self, sectors):
        target = TargetRatio.from_device_sectors(sectors)
        assert buddy_sectors_needed(sectors, target) == 0

    def test_buddy_sectors_overflow(self):
        assert buddy_sectors_needed(4, TargetRatio.X2) == 2
        assert buddy_sectors_needed(3, TargetRatio.X4) == 2
        assert buddy_sectors_needed(4, TargetRatio.X1) == 0

    def test_buddy_sectors_zero_class(self):
        assert buddy_sectors_needed(1, TargetRatio.X16, fits_zero_slot=True) == 0
        assert buddy_sectors_needed(3, TargetRatio.X16, fits_zero_slot=False) == 3

    def test_buddy_sectors_rejects_bad_input(self):
        with pytest.raises(ValueError):
            buddy_sectors_needed(5, TargetRatio.X2)


class TestSectorHistogram:
    def test_from_sizes(self):
        h = SectorHistogram.from_sizes(np.array([2, 8, 40, 70, 100, 128]))
        np.testing.assert_array_equal(h.sector_counts, [2, 1, 1, 2])
        assert h.zero_fit == 2
        assert h.total == 6

    def test_overflow_fraction(self):
        h = SectorHistogram.from_sizes(np.array([30, 60, 90, 120]))
        assert h.overflow_fraction(TargetRatio.X1) == 0.0
        assert h.overflow_fraction(TargetRatio.X1_33) == pytest.approx(0.25)
        assert h.overflow_fraction(TargetRatio.X2) == pytest.approx(0.50)
        assert h.overflow_fraction(TargetRatio.X4) == pytest.approx(0.75)

    def test_overflow_zero_class(self):
        h = SectorHistogram.from_sizes(np.array([4, 8, 12, 128]))
        assert h.overflow_fraction(TargetRatio.X16) == pytest.approx(0.5)

    def test_empty_histogram(self):
        h = SectorHistogram()
        assert h.total == 0
        assert h.overflow_fraction(TargetRatio.X4) == 0.0
        assert h.mean_sectors() == 0.0
        assert h.buddy_sector_fraction(TargetRatio.X2) == 0.0

    def test_merge(self):
        a = SectorHistogram.from_sizes(np.array([10, 120]))
        b = SectorHistogram.from_sizes(np.array([50]))
        merged = a.merge(b)
        assert merged.total == 3
        np.testing.assert_array_equal(merged.sector_counts, [1, 1, 0, 1])

    def test_buddy_sector_fraction(self):
        # one 4-sector entry at 2x target -> 2 overflow sectors
        h = SectorHistogram.from_sizes(np.array([128]))
        assert h.buddy_sector_fraction(TargetRatio.X2) == pytest.approx(2.0)

    def test_mean_sectors(self):
        h = SectorHistogram.from_sizes(np.array([30, 60, 128, 128]))
        assert h.mean_sectors() == pytest.approx((1 + 2 + 4 + 4) / 4)

    @given(st.lists(st.integers(0, 128), min_size=1, max_size=100))
    def test_overflow_monotone_in_target(self, sizes):
        """Lower targets never overflow more than higher ones."""
        h = SectorHistogram.from_sizes(np.array(sizes))
        overflows = [h.overflow_fraction(t) for t in ALLOWED_TARGETS]
        # ALLOWED_TARGETS is best-first: overflow must be non-increasing
        assert overflows == sorted(overflows, reverse=True)
