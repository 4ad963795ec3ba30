"""Tests for the split device/buddy allocator and the metadata cache."""

import pytest

from repro.analysis import paper_reference as paper
from repro.core.allocator import BuddyAllocator, OutOfMemoryError
from repro.core.entry import TargetRatio
from repro.core.metadata_cache import LINE_BYTES, MetadataCache
from repro.units import (
    ENTRIES_PER_METADATA_LINE,
    GIB,
    KIB,
    MEMORY_ENTRY_BYTES,
    METADATA_BITS_PER_ENTRY,
    METADATA_LINE_BYTES,
    MIB,
)


class TestBuddyAllocator:
    def test_allocate_places_device_and_buddy(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        alloc = allocator.allocate("a", 64 * KIB, TargetRatio.X2)
        assert alloc.entries == 512
        assert alloc.device_bytes == 32 * KIB
        assert alloc.buddy_bytes == 32 * KIB
        assert allocator.device_used == 32 * KIB
        assert allocator.buddy_used == 32 * KIB

    def test_1x_needs_no_buddy(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        alloc = allocator.allocate("raw", 64 * KIB, TargetRatio.X1)
        assert alloc.buddy_bytes == 0
        assert alloc.buddy_offset == -1
        with pytest.raises(ValueError, match="no buddy slots"):
            alloc.buddy_address(0)

    def test_oversubscription_fits_via_compression(self):
        """24 GB of data on a 12 GB GPU at 2x — the paper's headline use."""
        allocator = BuddyAllocator(device_capacity=12 * GIB)
        allocator.allocate("big", 24 * GIB, TargetRatio.X2)
        assert allocator.device_used == 12 * GIB

    def test_device_exhaustion(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        with pytest.raises(OutOfMemoryError, match="device"):
            allocator.allocate("too-big", 2 * MIB, TargetRatio.X1)

    def test_carve_out_exhaustion(self):
        # 16x keeps 8/128 in device, 120/128 in carve-out; carve-out is
        # only 3x device, so a huge 16x allocation hits the buddy limit
        # first.
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        with pytest.raises(OutOfMemoryError, match="carve-out"):
            allocator.allocate("zeros", 4 * MIB, TargetRatio.X16)

    def test_duplicate_name_rejected(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        allocator.allocate("a", 1024, TargetRatio.X1)
        with pytest.raises(ValueError, match="already exists"):
            allocator.allocate("a", 1024, TargetRatio.X1)

    def test_free_returns_capacity(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        allocator.allocate("a", 512 * KIB, TargetRatio.X2)
        allocator.free("a")
        assert allocator.device_used == 0
        assert allocator.buddy_used == 0
        with pytest.raises(KeyError):
            allocator.free("a")

    def test_entry_addresses(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        alloc = allocator.allocate("a", 1024, TargetRatio.X2)
        assert alloc.device_address(0) == alloc.device_base
        assert alloc.device_address(1) == alloc.device_base + 64
        assert alloc.buddy_address(1) == alloc.buddy_offset + 64
        with pytest.raises(IndexError):
            alloc.device_address(alloc.entries)

    def test_effective_capacity_ratio(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        allocator.allocate("a", 256 * KIB, TargetRatio.X2)
        allocator.allocate("b", 128 * KIB, TargetRatio.X1)
        logical = 256 + 128
        device = 128 + 128
        assert allocator.effective_capacity_ratio() == pytest.approx(logical / device)


class TestMetadataGeometry:
    def test_metadata_overhead_is_0_4_percent(self):
        """Sec. 3.2: 4 bits of size metadata per 128 B memory-entry."""
        overhead = METADATA_BITS_PER_ENTRY / (MEMORY_ENTRY_BYTES * 8)
        assert overhead == pytest.approx(
            paper.METADATA_OVERHEAD_FRACTION, abs=1e-4
        )

    def test_metadata_line_geometry_is_defined_once(self):
        """The metadata cache's line and the simulators' metadata
        addressing share one constant (repro.units), tied to the
        per-entry metadata width: one line covers 64 entries."""
        assert LINE_BYTES == METADATA_LINE_BYTES
        assert (
            ENTRIES_PER_METADATA_LINE
            == METADATA_LINE_BYTES * 8 // METADATA_BITS_PER_ENTRY
            == 64
        )


class TestMetadataCache:
    def test_spatial_streaming_hits(self):
        """Sequential entries share metadata lines: 63/64 hits."""
        cache = MetadataCache(total_bytes=4096, ways=4, slices=1)
        for entry in range(64 * 8):
            cache.access_entry(entry)
        assert cache.stats.misses == 8
        assert cache.stats.hit_rate == pytest.approx(1 - 8 / 512)

    def test_capacity_miss_on_huge_stride(self):
        cache = MetadataCache(total_bytes=1024, ways=2, slices=1)
        lines = 1024 // 32
        for _ in range(3):
            for line in range(0, lines * 64, 64):  # 64 lines > capacity
                cache.access_line(line)
        assert cache.stats.hit_rate == 0.0

    def test_lru_within_set(self):
        cache = MetadataCache(total_bytes=64, ways=2, slices=1)  # 1 set
        cache.access_line(0)
        cache.access_line(1)
        cache.access_line(0)  # refresh 0
        cache.access_line(2)  # evicts 1
        assert cache.access_line(0)  # hit
        assert not cache.access_line(1)  # miss

    def test_small_working_set_hits(self):
        cache = MetadataCache(total_bytes=64 * 1024, ways=4, slices=8)
        for _ in range(4):
            for line in range(100):
                cache.access_line(line)
        assert cache.stats.hit_rate > 0.7

    def test_bigger_cache_never_hurts(self):
        """Hit rate grows with capacity on a reused random stream."""
        import numpy as np

        rng = np.random.default_rng(9)
        stream = rng.integers(0, 4096, 4000)
        rates = []
        for kib in (8, 32, 128):
            cache = MetadataCache(total_bytes=kib * 1024, ways=4, slices=8)
            for line in stream:
                cache.access_line(int(line))
            rates.append(cache.stats.hit_rate)
        assert rates == sorted(rates)

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="not divisible"):
            MetadataCache(total_bytes=1000, ways=3, slices=7)

    def test_flush(self):
        cache = MetadataCache(total_bytes=4096, ways=4, slices=1)
        cache.access_line(0)
        cache.flush()
        assert cache.stats.accesses == 0
        assert not cache.access_line(0)  # cold again
