"""Bit-Plane Compression (BPC), after Kim et al., ISCA 2016.

BPC is the codec Buddy Compression builds on.  For one 128 B
memory-entry (32 little-endian ``uint32`` words) it:

1. keeps the first word as the *base* and takes 31 consecutive deltas
   (33-bit signed values);
2. transposes the deltas into 33 *delta bit-planes* (DBP), each a
   31-bit symbol;
3. XORs adjacent planes (DBX transform): ``DBX[b] = DBP[b] ^ DBP[b+1]``
   with the top plane passed through;
4. encodes the base word and each DBX plane with a short prefix-free
   code exploiting the frequent all-zero / all-one / single-one plane
   patterns that homogeneous GPU data produces.

:meth:`BPCCompressor.compressed_sizes` prices those streams without
writing them: sizes are all every snapshot study consumes.  It never
builds the planes: for a delta ``d_j`` masked to 33 bits, bit ``b`` of
``d_j ^ (d_j >> 1)`` is symbol ``j`` of DBX plane ``b`` (the top plane
passes through).  Bitwise reductions over the 31 rows give per-block
masks, one bit per plane, whose popcounts price every plane and zero
run.  Blocks go through in fixed chunks of ``_CHUNK_BLOCKS`` = 4,096:
a chunk's word-major int64 copy is 1 MiB and its delta and DBX rows
about as much, so the working set stays near a core's L2 and the
temporaries are a few MiB whatever the input size.  The bit-exact
encoder and decoder it is property-tested against live with the tests
(``tests/codec_oracle.py``).

Code table for DBX planes (prefix-free):

=====================  ==========================  =====
Plane pattern          Code                        Bits
=====================  ==========================  =====
run of 2–33 zeros      ``001`` + 5-bit (run − 2)   8
single zero plane      ``01``                      2
all ones               ``00000``                   5
DBX ≠ 0 but DBP = 0    ``00001``                   5
two consecutive ones   ``00010`` + 5-bit position  10
single one             ``00011`` + 5-bit position  10
uncompressed           ``1`` + 31 raw bits         32
=====================  ==========================  =====

Base-word code: ``000`` for zero, ``001``/``010``/``011`` + 4/8/16-bit
sign-extended payloads, ``1`` + 32 raw bits otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressionAlgorithm, as_blocks
from repro.units import MEMORY_ENTRY_BYTES

_DELTA_MASK = (1 << 33) - 1  # 33-bit two's-complement deltas
_CHUNK_BLOCKS = 1 << 12  # blocks per pass of the vectorised size kernel

# Base-word payload widths for the sign-extended classes.
_BASE_CLASSES = ((0b001, 4), (0b010, 8), (0b011, 16))


class BPCCompressor(CompressionAlgorithm):
    """Bit-Plane Compression codec for 128 B memory-entries."""

    name = "bpc"

    def compressed_sizes(self, blocks: np.ndarray) -> np.ndarray:
        """Sizes in bytes for ``(n, 32)`` uint32 blocks, vectorised.

        Matches the bit-exact encoder of ``tests/codec_oracle.py``
        (property-tested).  The sizes come from bitwise reductions over ``d ^ (d >> 1)``, in
        chunks of ``_CHUNK_BLOCKS`` blocks (see the module docstring).
        """
        blocks = as_blocks(blocks)
        if blocks.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        sizes = self._stream_bits_vectorised(blocks)
        sizes += 7
        sizes //= 8
        return np.minimum(sizes, MEMORY_ENTRY_BYTES, out=sizes)

    @staticmethod
    def _stream_bits_vectorised(blocks: np.ndarray) -> np.ndarray:
        """Encoded bit count (incl. 1 flag bit) per block, before capping."""
        bits = np.empty(blocks.shape[0], dtype=np.int64)
        for start in range(0, blocks.shape[0], _CHUNK_BLOCKS):
            # Word-major (32, n) chunk: each row is one contiguous pass, and
            # every mask below holds one bit per plane of each block.
            words = np.ascontiguousarray(
                blocks[start : start + _CHUNK_BLOCKS].T, dtype=np.int64
            )
            deltas = words[1:] - words[:-1]
            deltas &= _DELTA_MASK
            dbx = deltas >> 1
            dbx ^= deltas  # bit b of dbx[j] is symbol j of DBX plane b

            # Saturating per-plane counts of set symbols (>= 1, >= 2, >= 3)
            # and whether any two adjacent symbols are both set.
            ge1 = dbx[0].copy()
            ge2, ge3, adjacent, term = (np.zeros_like(ge1) for _ in range(4))
            for below, row in zip(dbx[:-1], dbx[1:]):
                ge3 |= np.bitwise_and(ge2, row, out=term)
                ge2 |= np.bitwise_and(ge1, row, out=term)
                ge1 |= row
                adjacent |= np.bitwise_and(below, row, out=term)
            zero = ~ge1 & _DELTA_MASK
            five = np.bitwise_and.reduce(dbx, axis=0)  # all-ones planes
            five |= ge1 & ~np.bitwise_or.reduce(deltas, axis=0)  # DBP == 0
            ten = (ge1 & ~ge2) | (ge2 & ~ge3 & adjacent)
            ten &= ~five
            raw = ge1 & ~(five | ten)
            # A zero run ends (top-down) where the plane below is non-zero
            # or at plane 0; it costs 8 bits, or 2 when it is one plane.
            ends = zero & ~(zero << 1)
            single = ends & ~(zero >> 1)

            signed = words[0] - ((words[0] >> 31) << 32)
            magnitude = signed ^ (signed >> 63)  # fits w bits iff < 2**(w-1)
            fits = [signed == 0] + [magnitude < 1 << w - 1 for _, w in _BASE_CLASSES]
            cost = np.select(fits, [3] + [3 + w for _, w in _BASE_CLASSES], 33)
            for weight, mask in ((5, five), (10, ten), (32, raw), (8, ends), (-6, single)):
                cost += weight * np.bitwise_count(mask).astype(np.int64)
            bits[start : start + cost.shape[0]] = 1 + cost
        return bits

