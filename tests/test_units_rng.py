"""Tests for the shared unit helpers and RNG plumbing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import rng as rng_lib
from repro.units import (
    ENTRIES_PER_PAGE,
    FREE_COMPRESSED_SIZES,
    GIB,
    MEMORY_ENTRY_BYTES,
    SECTOR_BYTES,
    SECTORS_PER_ENTRY,
    WORDS_PER_ENTRY,
    bytes_to_human,
)


def gbps_to_bytes_per_cycle(gbps: float, clock_hz: float) -> float:
    """Convert a link bandwidth in GB/s to bytes per clock cycle."""
    return gbps * 1e9 / clock_hz


class TestUnits:
    def test_entry_geometry(self):
        assert MEMORY_ENTRY_BYTES == 128
        assert SECTOR_BYTES == 32
        assert SECTORS_PER_ENTRY == 4
        assert WORDS_PER_ENTRY == 32
        assert ENTRIES_PER_PAGE == 64

    def test_free_sizes_are_the_papers(self):
        assert FREE_COMPRESSED_SIZES == (0, 8, 16, 32, 64, 80, 96, 128)

    @pytest.mark.parametrize(
        "value,expected",
        [(2 * GIB, "2.15GB"), (1_500_000, "1.50MB"), (2_000, "2.00KB"), (12, "12B")],
    )
    def test_bytes_to_human(self, value, expected):
        assert bytes_to_human(value) == expected

    def test_bandwidth_conversion(self):
        # 150 GB/s at 1.3 GHz ~= 115 B/cycle (the NVLink2 number)
        assert gbps_to_bytes_per_cycle(150.0, 1.3e9) == pytest.approx(115.4, abs=0.1)


class TestRng:
    def test_same_stream_same_sequence(self):
        a = rng_lib.generator("test/stream").random(8)
        b = rng_lib.generator("test/stream").random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = rng_lib.generator("stream/a").random(8)
        b = rng_lib.generator("stream/b").random(8)
        assert not np.array_equal(a, b)

    def test_seed_changes_everything(self):
        a = rng_lib.generator("stream", seed=1).random(8)
        b = rng_lib.generator("stream", seed=2).random(8)
        assert not np.array_equal(a, b)

    @given(st.text(min_size=1, max_size=40))
    def test_stream_seed_is_stable_and_64bit(self, name):
        seed = rng_lib.stream_seed(name)
        assert seed == rng_lib.stream_seed(name)
        assert 0 <= seed < 1 << 64
