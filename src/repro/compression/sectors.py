"""Quantisation of compressed sizes to the paper's storage classes.

Two quantisation regimes appear in the paper:

* **Free sizes** (Fig. 3's optimistic capacity study): each 128 B entry
  may occupy any of {0, 8, 16, 32, 64, 80, 96, 128} bytes, with 0 B
  reserved for all-zero entries whose existence the 4-bit metadata can
  record without any data storage.
* **Sector sizes** (the actual Buddy design): entries occupy 1–4 whole
  32 B sectors, matching GPU DRAM access granularity; the mostly-zero
  16x class keeps only 8 B of a 128 B entry in device memory.
"""

from __future__ import annotations

import numpy as np

from repro.units import (
    FREE_COMPRESSED_SIZES,
    MEMORY_ENTRY_BYTES,
    SECTOR_BYTES,
)

_FREE_SIZES = np.array(FREE_COMPRESSED_SIZES, dtype=np.int64)


def quantize_free_size(size_bytes: int, is_zero: bool = False) -> int:
    """Quantise one compressed size to the Fig. 3 free-size set.

    Args:
        size_bytes: Raw compressed size in bytes (0..128).
        is_zero: Whether the entry is entirely zero (eligible for the
            0 B class).
    """
    if not 0 <= size_bytes <= MEMORY_ENTRY_BYTES:
        raise ValueError(f"size {size_bytes} outside 0..{MEMORY_ENTRY_BYTES}")
    if is_zero:
        return 0
    candidates = _FREE_SIZES[_FREE_SIZES >= max(size_bytes, 1)]
    return int(candidates[0])


def quantize_to_sectors(size_bytes: int) -> int:
    """Number of 32 B sectors (1..4) one compressed entry occupies."""
    if not 0 <= size_bytes <= MEMORY_ENTRY_BYTES:
        raise ValueError(f"size {size_bytes} outside 0..{MEMORY_ENTRY_BYTES}")
    return max(1, -(-size_bytes // SECTOR_BYTES))


def sectors_for_sizes(sizes: np.ndarray) -> np.ndarray:
    """Vectorised :func:`quantize_to_sectors` over a size array."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size and (sizes.min() < 0 or sizes.max() > MEMORY_ENTRY_BYTES):
        raise ValueError("sizes outside 0..128")
    return np.maximum(1, -(-sizes // SECTOR_BYTES))


def free_sizes_for_sizes(sizes: np.ndarray, zero_mask: np.ndarray) -> np.ndarray:
    """Vectorised :func:`quantize_free_size` over sizes + zero-entry mask."""
    sizes = np.asarray(sizes, dtype=np.int64)
    indices = np.searchsorted(_FREE_SIZES, np.maximum(sizes, 1))
    quantized = _FREE_SIZES[indices]
    return np.where(np.asarray(zero_mask, dtype=bool), 0, quantized)
