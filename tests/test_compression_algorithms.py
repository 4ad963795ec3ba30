"""Tests for the BDI / FPC / C-PACK / zero-block codecs and quantisation.

Each bulk kernel is checked element-wise against the word-by-word
sizes of ``codec_oracle``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codec_oracle import bdi_size, cpack_size, fpc_size, zeroblock_size
from repro.compression.bdi import BDICompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.fpc import FPCCompressor
from repro.compression.sectors import (
    quantize_free_size,
    quantize_to_sectors,
    sectors_for_sizes,
    free_sizes_for_sizes,
)
from repro.compression.zeroblock import ZeroBlockCompressor, zero_mask
from repro.units import (
    MEMORY_ENTRY_BYTES,
    SECTOR_BYTES,
    SECTORS_PER_ENTRY,
    WORDS_PER_ENTRY,
    ZERO_CLASS_BYTES,
)


def fits_zero_class(size_bytes: int) -> bool:
    """Whether an entry qualifies for the 16x mostly-zero class slot."""
    return size_bytes <= ZERO_CLASS_BYTES


def device_bytes_for_target(target_sectors: int) -> int:
    """Device-resident bytes per entry; 0 sectors is the 16x class."""
    if target_sectors == 0:
        return ZERO_CLASS_BYTES
    if not 1 <= target_sectors <= SECTORS_PER_ENTRY:
        raise ValueError(f"bad target sector count {target_sectors}")
    return target_sectors * SECTOR_BYTES


BDI = BDICompressor()
FPC = FPCCompressor()
CPACK = CPackCompressor()
ZB = ZeroBlockCompressor()


def _one(codec, block) -> int:
    """The bulk kernel's size for one entry."""
    return int(codec.compressed_sizes(np.asarray(block, dtype=np.uint32)[None])[0])


def test_codec_oracle_is_independent():
    """The oracle imports none of the code it checks."""
    tree = ast.parse((Path(__file__).parent / "codec_oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "repro.units" in imported
    assert not [name for name in imported if name.startswith("repro.compression")]

blocks_strategy = hnp.arrays(
    np.uint32, (WORDS_PER_ENTRY,), elements=st.integers(0, 2**32 - 1)
)
small_blocks = hnp.arrays(
    np.uint32, (WORDS_PER_ENTRY,), elements=st.integers(0, 300)
)
# Words sharing high bytes: exercises every C-PACK dictionary
# comparator (full / 3-byte / 2-byte), FIFO wraparound, and — via
# hi == 0 — active words below 0x10000 whose high-2-byte pattern
# equals an unwritten dictionary slot's.
dict_heavy_blocks = hnp.arrays(
    np.uint32,
    (WORDS_PER_ENTRY,),
    elements=st.builds(
        lambda hi, lo: (hi << 16) | lo,
        st.integers(0, 3),
        st.integers(0, 2**16 - 1),
    ),
)


class TestBDI:
    def test_zero_block(self):
        block = np.zeros(32, dtype=np.uint32)
        assert _one(BDI, block) == bdi_size(block) == 1

    def test_repeated_block(self):
        block = np.full(32, 0xCAFEBABE, dtype=np.uint32)
        assert _one(BDI, block) == bdi_size(block) == 9

    def test_base8_delta1(self):
        base = np.uint64(0x1234_5678_9ABC_DEF0)
        qwords = base + np.arange(16, dtype=np.uint64)
        block = qwords.view(np.uint32)
        # 1 header + 8 base + 16 deltas = 25
        assert _one(BDI, block) == bdi_size(block) == 25

    def test_incompressible(self):
        rng = np.random.default_rng(5)
        block = rng.integers(0, 2**32, 32, dtype=np.uint32)
        assert _one(BDI, block) == bdi_size(block) == MEMORY_ENTRY_BYTES

    @given(st.lists(st.one_of(blocks_strategy, small_blocks), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_vectorised_matches_oracle(self, blocks):
        stacked = np.stack(blocks)
        expected = np.array([bdi_size(b) for b in blocks])
        np.testing.assert_array_equal(BDI.compressed_sizes(stacked), expected)

    @given(blocks_strategy)
    @settings(max_examples=100, deadline=None)
    def test_size_bounds(self, block):
        assert 1 <= _one(BDI, block) <= MEMORY_ENTRY_BYTES


class TestFPC:
    def test_zero_block_uses_runs(self):
        # 32 zero words -> 4 run codes of 8 -> 24 bits -> 3 bytes
        block = np.zeros(32, dtype=np.uint32)
        assert _one(FPC, block) == fpc_size(block) == 3

    def test_small_values(self):
        block = np.arange(1, 33, dtype=np.uint32)  # 4-bit / 8-bit payloads
        # 7 words fit 4-bit payloads (7 bits each), 25 need 8-bit (11 bits):
        # 7*7 + 25*11 = 324 bits -> 41 bytes.
        assert _one(FPC, block) == fpc_size(block) == 41

    def test_incompressible(self):
        rng = np.random.default_rng(6)
        block = rng.integers(2**28, 2**32, 32, dtype=np.uint32)
        # prefix overhead can exceed 128 B; size is capped
        assert _one(FPC, block) == fpc_size(block) == MEMORY_ENTRY_BYTES

    @given(st.lists(st.one_of(blocks_strategy, small_blocks), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_vectorised_matches_oracle(self, blocks):
        stacked = np.stack(blocks)
        expected = np.array([fpc_size(b) for b in blocks])
        np.testing.assert_array_equal(FPC.compressed_sizes(stacked), expected)


class TestCPack:
    def test_zero_block(self):
        block = np.zeros(32, dtype=np.uint32)
        assert _one(CPACK, block) == cpack_size(block) == 8

    def test_repeated_word_hits_dictionary(self):
        block = np.full(32, 0x11223344, dtype=np.uint32)
        # first word unmatched (34 bits), the rest full matches (6 bits)
        assert _one(CPACK, block) == cpack_size(block) == (34 + 31 * 6 + 7) // 8

    def test_low_byte_words(self):
        block = np.full(32, 0x7F, dtype=np.uint32)
        assert _one(CPACK, block) == cpack_size(block) == (32 * 12 + 7) // 8

    def test_bulk_sizes_match_oracle(self):
        # Regression: bulk (n, 32) input must yield one size per entry
        # with the FIFO dictionary reset at entry boundaries, exactly
        # as if each entry were compressed alone.
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 2**32, size=(16, 32), dtype=np.uint32)
        blocks[3] = 0
        blocks[7] = 0x11223344
        sizes = CPACK.compressed_sizes(blocks)
        assert sizes.shape == (16,) and sizes.dtype == np.int64
        expected = [cpack_size(b) for b in blocks]
        np.testing.assert_array_equal(sizes, expected)

    def test_bulk_sizes_accepts_raw_bytes_view(self):
        # The bulk contract matches the vectorised codecs: anything
        # as_blocks accepts, including raw float data and empty input.
        data = np.arange(64, dtype=np.float32)
        assert CPACK.compressed_sizes(data).shape == (2,)
        assert CPACK.compressed_sizes(
            np.zeros((0, 32), dtype=np.uint32)
        ).shape == (0,)

    @given(blocks_strategy)
    @settings(max_examples=100, deadline=None)
    def test_size_bounds(self, block):
        assert 1 <= _one(CPACK, block) <= MEMORY_ENTRY_BYTES

    @given(
        st.lists(
            st.one_of(blocks_strategy, small_blocks, dict_heavy_blocks),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_vectorised_matches_oracle(self, blocks):
        stacked = np.stack(blocks)
        expected = np.array([cpack_size(b) for b in blocks])
        np.testing.assert_array_equal(CPACK.compressed_sizes(stacked), expected)


class TestQuantisation:
    @pytest.mark.parametrize(
        "size,expected",
        [(0, 8), (1, 8), (8, 8), (9, 16), (17, 32), (33, 64), (65, 80), (81, 96), (97, 128), (128, 128)],
    )
    def test_free_sizes(self, size, expected):
        assert quantize_free_size(size) == expected

    def test_free_size_zero_block(self):
        assert quantize_free_size(5, is_zero=True) == 0

    def test_free_size_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantize_free_size(129)

    @pytest.mark.parametrize(
        "size,sectors", [(0, 1), (1, 1), (32, 1), (33, 2), (64, 2), (65, 3), (96, 3), (97, 4), (128, 4)]
    )
    def test_sector_quantisation(self, size, sectors):
        assert quantize_to_sectors(size) == sectors

    @given(st.lists(st.integers(0, 128), min_size=1, max_size=64))
    def test_vectorised_sectors_match(self, sizes):
        arr = np.array(sizes)
        expected = np.array([quantize_to_sectors(s) for s in sizes])
        np.testing.assert_array_equal(sectors_for_sizes(arr), expected)

    @given(
        st.lists(st.integers(0, 128), min_size=1, max_size=64),
        st.data(),
    )
    def test_vectorised_free_sizes_match(self, sizes, data):
        zeros = data.draw(
            st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes))
        )
        arr = np.array(sizes)
        mask = np.array(zeros)
        expected = np.array(
            [quantize_free_size(s, z) for s, z in zip(sizes, zeros)]
        )
        np.testing.assert_array_equal(free_sizes_for_sizes(arr, mask), expected)

    def test_zero_class(self):
        assert fits_zero_class(0) and fits_zero_class(8)
        assert not fits_zero_class(9)
        assert device_bytes_for_target(0) == 8
        assert device_bytes_for_target(2) == 64
        with pytest.raises(ValueError):
            device_bytes_for_target(5)


class TestZeroBlock:
    def test_zero_mask(self):
        blocks = np.zeros((4, 32), dtype=np.uint32)
        blocks[2, 5] = 1
        np.testing.assert_array_equal(zero_mask(blocks), [True, True, False, True])

    def test_per_entry_sizes(self):
        zeros, ones = np.zeros(32, dtype=np.uint32), np.ones(32, dtype=np.uint32)
        assert _one(ZB, zeros) == zeroblock_size(zeros) == 0
        assert _one(ZB, ones) == zeroblock_size(ones) == MEMORY_ENTRY_BYTES

    def test_compressor_bulk_matches_mask(self):
        blocks = np.zeros((6, 32), dtype=np.uint32)
        blocks[1, 31] = 1
        blocks[4, 0] = 2
        sizes = ZB.compressed_sizes(blocks)
        np.testing.assert_array_equal(
            sizes, np.where(zero_mask(blocks), 0, MEMORY_ENTRY_BYTES)
        )
        np.testing.assert_array_equal(sizes, [zeroblock_size(b) for b in blocks])
        assert ZB.compressed_sizes(np.zeros((0, 32), np.uint32)).shape == (0,)
