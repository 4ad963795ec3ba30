"""Frequent Pattern Compression (Alameldeen & Wood, 2004).

FPC encodes each 32-bit word with a 3-bit prefix selecting one of eight
patterns; runs of zero words share a single prefix.  Applied here to
the paper's 128 B memory-entry (32 words).

Patterns (payload bits in parentheses):

======  =======================================  =======
Prefix  Pattern                                  Payload
======  =======================================  =======
000     run of 1–8 zero words                    3
001     4-bit sign-extended                      4
010     8-bit sign-extended                      8
011     16-bit sign-extended                     16
100     16-bit padded with a zero halfword       16
101     two halfwords, each a sign-ext. byte     16
110     word of four repeated bytes              8
111     uncompressed word                        32
======  =======================================  =======
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressionAlgorithm, as_blocks
from repro.units import MEMORY_ENTRY_BYTES

_PREFIX_BITS = 3
_MAX_ZERO_RUN = 8


class FPCCompressor(CompressionAlgorithm):
    """Frequent Pattern Compression for 128 B entries."""

    name = "fpc"

    def compressed_sizes(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorised sizes for ``(n, 32)`` uint32 blocks."""
        blocks = as_blocks(blocks)
        n = blocks.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        words = blocks.astype(np.int64)
        signed = np.where(words >> 31, words - (1 << 32), words)

        payload = np.full(words.shape, 32, dtype=np.int64)
        bytes_view = np.ascontiguousarray(blocks).view(np.uint8).reshape(n, -1, 4)
        repeated = (bytes_view == bytes_view[:, :, :1]).all(axis=2)
        payload[repeated] = 8
        low = words & 0xFFFF
        high = words >> 16
        low_signed = np.where(low >> 15, low - (1 << 16), low)
        high_signed = np.where(high >> 15, high - (1 << 16), high)
        two_bytes = (
            (low_signed >= -128)
            & (low_signed < 128)
            & (high_signed >= -128)
            & (high_signed < 128)
        )
        payload[two_bytes] = 16
        payload[low == 0] = 16
        payload[(signed >= -32768) & (signed < 32768)] = 16
        payload[(signed >= -128) & (signed < 128)] = 8
        payload[(signed >= -8) & (signed < 8)] = 4

        bits = np.where(words != 0, _PREFIX_BITS + payload, 0).sum(axis=1)

        # Zero runs: each run of r zero words costs ceil(r / 8) * 6 bits.
        zero = words == 0
        run = np.zeros(n, dtype=np.int64)
        for column in range(words.shape[1]):
            run = np.where(zero[:, column], run + 1, 0)
            starts_code = zero[:, column] & (run % _MAX_ZERO_RUN == 1)
            bits += starts_code * (_PREFIX_BITS + 3)

        sizes = (bits + 7) // 8
        return np.minimum(sizes, MEMORY_ENTRY_BYTES).astype(np.int64)
