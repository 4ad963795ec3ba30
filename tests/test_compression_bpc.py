"""Tests for the Bit-Plane Compression codec."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.bpc import (
    BPCCompressor,
    _dbp_planes,
    _dbx_planes,
    _is_two_consecutive_ones,
)
from repro.units import MEMORY_ENTRY_BYTES, WORDS_PER_ENTRY

BPC = BPCCompressor()

blocks_strategy = hnp.arrays(
    dtype=np.uint32,
    shape=(WORDS_PER_ENTRY,),
    elements=st.integers(0, 2**32 - 1),
)


def _block(words) -> np.ndarray:
    """A hand-built entry from 32 word values, taken mod 2**32."""
    return np.array([int(w) % 2**32 for w in words], dtype=np.uint32)


#: Hand-built entries for the size kernel's plane-mask edge cases.
EDGE_BLOCKS = {
    # Deltas are multiples of 64: DBX planes 0-4 are a zero run that
    # ends at plane 0, below non-zero planes.
    "run_to_plane_0": _block(np.cumsum([1000] + [64 * (j % 3) for j in range(31)])),
    # Non-negative deltas, one with bit 31 set: plane 32 alone is zero.
    "single_zero_plane_32": _block(np.cumsum([0, 2**31 + 5] + [1] * 30)),
    "adjacent_ones_29_30": _block([5] * 30 + [6, 7]),
    "adjacent_ones_0_1": _block([5, 6] + [7] * 30),
    "two_ones_apart": _block([5, 6, 6, 7] + [7] * 28),
    # Every delta is 0 or 2: DBP plane 0 is zero, DBX plane 0 is not.
    "dbx_set_dbp_zero": _block(np.cumsum([10] + [2 * (j % 3 != 1) for j in range(31)])),
    # Constant delta 4: DBX planes 1 and 2 are all ones.
    "all_ones": _block(4 * np.arange(32)),
    # Negative deltas set the sign plane (bit 32).
    "sign_plane": _block(100 - np.arange(32)),
    "mixed_signs": _block([(37 * j * j) % 1000 for j in range(32)]),
}

#: Constant blocks whose base word sits on each base-class boundary.
BASE_BOUNDARY_BLOCKS = [
    np.full(WORDS_PER_ENTRY, value % 2**32, dtype=np.uint32)
    for bound in (8, 128, 32768)
    for value in (bound - 1, bound, -bound, -bound - 1)
]

structured_blocks = st.one_of(
    # Arithmetic ramps: the best case for delta + bit-plane coding.
    st.builds(
        lambda start, step: (start + step * np.arange(32, dtype=np.int64)).astype(
            np.uint32
        ),
        st.integers(0, 2**20),
        st.integers(-64, 64),
    ),
    # Constant blocks.
    st.builds(
        lambda value: np.full(32, value, dtype=np.uint32),
        st.integers(0, 2**32 - 1),
    ),
    # Low-entropy small integers.
    hnp.arrays(np.uint32, (WORDS_PER_ENTRY,), elements=st.integers(0, 255)),
    blocks_strategy,
)


class TestScalarCodec:
    def test_zero_block_compresses_hard(self):
        block = np.zeros(WORDS_PER_ENTRY, dtype=np.uint32)
        assert BPC.compressed_size(block) <= 2

    def test_constant_block_compresses_hard(self):
        block = np.full(WORDS_PER_ENTRY, 0xDEADBEEF, dtype=np.uint32)
        # base raw (33) + one zero-run of all planes (8) + flag
        assert BPC.compressed_size(block) <= 6

    def test_ramp_block_compresses(self):
        block = np.arange(WORDS_PER_ENTRY, dtype=np.uint32)
        assert BPC.compressed_size(block) <= 8

    def test_random_block_does_not_exceed_entry(self):
        rng = np.random.default_rng(7)
        block = rng.integers(0, 2**32, WORDS_PER_ENTRY, dtype=np.uint32)
        assert BPC.compressed_size(block) == MEMORY_ENTRY_BYTES

    def test_wrong_algorithm_rejected(self):
        block = BPC.encode(np.zeros(WORDS_PER_ENTRY, dtype=np.uint32))
        other = type(block)("bdi", block.bits, block.bit_length)
        with pytest.raises(ValueError):
            BPC.decode(other)

    @given(blocks_strategy)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random(self, block):
        decoded = BPC.decode(BPC.encode(block))
        np.testing.assert_array_equal(decoded, block)

    @given(structured_blocks)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_structured(self, block):
        decoded = BPC.decode(BPC.encode(block))
        np.testing.assert_array_equal(decoded, block)

    def test_roundtrip_float_data(self):
        rng = np.random.default_rng(3)
        values = rng.normal(1.0, 1e-3, WORDS_PER_ENTRY).astype(np.float32)
        block = values.view(np.uint32)
        decoded = BPC.decode(BPC.encode(block))
        np.testing.assert_array_equal(decoded, block)


class TestVectorisedSizes:
    @given(st.lists(st.one_of(blocks_strategy, structured_blocks), min_size=1, max_size=16))
    @example([EDGE_BLOCKS["run_to_plane_0"]])
    @example([EDGE_BLOCKS["single_zero_plane_32"]])
    @example([EDGE_BLOCKS["adjacent_ones_29_30"], EDGE_BLOCKS["adjacent_ones_0_1"]])
    @example([EDGE_BLOCKS["two_ones_apart"]])
    @example([EDGE_BLOCKS["dbx_set_dbp_zero"]])
    @example([EDGE_BLOCKS["all_ones"]])
    @example([EDGE_BLOCKS["sign_plane"], EDGE_BLOCKS["mixed_signs"]])
    @example(BASE_BOUNDARY_BLOCKS)
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar(self, blocks):
        stacked = np.stack(blocks)
        expected = np.array([BPC.compressed_size(b) for b in blocks])
        np.testing.assert_array_equal(BPC.compressed_sizes(stacked), expected)

    def test_empty_input(self):
        assert BPC.compressed_sizes(np.zeros((0, 32), dtype=np.uint32)).size == 0

    def test_sizing_memory_is_bounded(self):
        """Chunking caps the kernel's temporaries, whatever the input size:
        4,096-block chunks make a few MiB of them, and the one int64 size
        vector is 2 MiB here."""
        blocks = np.random.default_rng(18).integers(0, 1 << 12, (1 << 18, 32), dtype=np.uint32)
        tracemalloc.start()
        try:
            BPC.compressed_sizes(blocks)  # 32 MiB of input
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_accepts_flat_bytes(self):
        data = np.zeros(256, dtype=np.uint8)
        sizes = BPC.compressed_sizes(data)
        assert sizes.shape == (2,)

    def test_smooth_float_fields_compress_well(self):
        """Homogeneous fp32 data is the paper's motivating case for BPC."""
        x = np.linspace(0.0, 1.0, 4096, dtype=np.float32)
        field = (np.sin(x * 3.0) * 0.5 + 1.0).astype(np.float32)
        ratio = BPC.compression_ratio(field)
        assert ratio > 1.5

    def test_random_floats_do_not_compress(self):
        rng = np.random.default_rng(11)
        data = rng.random(4096, dtype=np.float32) * 1e9
        ratio = BPC.compression_ratio(data)
        assert ratio < 1.2


class TestTransforms:
    def test_dbp_plane_count(self):
        planes = _dbp_planes(np.arange(32, dtype=np.uint32))
        assert len(planes) == 33

    def test_ramp_has_constant_deltas(self):
        """Uniform deltas make every DBX plane zero except possibly one."""
        planes = _dbp_planes(np.arange(32, dtype=np.uint32))
        dbx = _dbx_planes(planes)
        nonzero = [p for p in dbx if p != 0]
        assert len(nonzero) <= 1

    def test_two_consecutive_ones_detector(self):
        assert _is_two_consecutive_ones(0b11)
        assert _is_two_consecutive_ones(0b1100)
        assert not _is_two_consecutive_ones(0b101)
        assert not _is_two_consecutive_ones(0b1)
        assert not _is_two_consecutive_ones(0)
        assert not _is_two_consecutive_ones(0b111)
