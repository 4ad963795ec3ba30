"""Zero-entry detection.

All-zero 128 B entries are special throughout the paper: the Fig. 3
study gives them a 0 B class, and the final design promotes mostly-zero
allocations to a 16x target (8 B resident per entry).
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressionAlgorithm, as_blocks
from repro.units import MEMORY_ENTRY_BYTES


class ZeroBlockCompressor(CompressionAlgorithm):
    """The 0 B zero-entry class as a standalone codec.

    All-zero entries store nothing (the metadata already encodes the
    class); anything else is stored raw.  Exists so the zero-entry
    special case is a codec like the others: one vectorised
    ``compressed_sizes`` over ``(n, 32)`` blocks.
    """

    name = "zeroblock"

    def compressed_sizes(self, blocks: np.ndarray) -> np.ndarray:
        blocks = as_blocks(blocks)
        return np.where(zero_mask(blocks), 0, MEMORY_ENTRY_BYTES).astype(
            np.int64
        )


def zero_mask(blocks: np.ndarray) -> np.ndarray:
    """Boolean mask of entries that are entirely zero.

    Args:
        blocks: ``(n, 32)`` uint32 array (or anything
            :func:`repro.compression.base.as_blocks` accepts).
    """
    blocks = as_blocks(blocks)
    return ~blocks.any(axis=1)

