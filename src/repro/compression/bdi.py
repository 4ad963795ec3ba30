"""Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012).

BDI exploits low dynamic range: a block is stored as one base value
plus narrow deltas.  The original targets 32/64 B cache lines; we apply
it to the paper's 128 B memory-entry, keeping the canonical encoding
set (zeros, repeated values, and base{8,4,2}-delta{1,2,4} classes).

One byte of header encodes the chosen class, matching the original
proposal's per-line encoding cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import CompressionAlgorithm, as_blocks
from repro.units import MEMORY_ENTRY_BYTES

_HEADER_BYTES = 1


@dataclass(frozen=True)
class _BdiClass:
    """One base+delta encoding class."""

    name: str
    base_bytes: int
    delta_bytes: int

    @property
    def compressed_bytes(self) -> int:
        values = MEMORY_ENTRY_BYTES // self.base_bytes
        return _HEADER_BYTES + self.base_bytes + values * self.delta_bytes


#: The canonical BDI classes, best (smallest) first.
BDI_CLASSES = (
    _BdiClass("base8-delta1", 8, 1),
    _BdiClass("base4-delta1", 4, 1),
    _BdiClass("base8-delta2", 8, 2),
    _BdiClass("base2-delta1", 2, 1),
    _BdiClass("base4-delta2", 4, 2),
    _BdiClass("base8-delta4", 8, 4),
)


def _deltas_fit(values: np.ndarray, width_bits: int, delta_bytes: int) -> np.ndarray:
    """Whether each row's deltas from its first value fit ``delta_bytes``.

    Deltas wrap modulo the base width, as the hardware adder does; a
    wrapped delta fits iff it sign-extends from ``delta_bytes`` bytes.

    Args:
        values: ``(n, k)`` uint64 array of base-sized words.
        width_bits: Bit width of the base (16/32/64).
        delta_bytes: Stored delta width in bytes.

    Returns:
        ``(n,)`` boolean mask.
    """
    mask = np.uint64((1 << width_bits) - 1 if width_bits < 64 else 0xFFFF_FFFF_FFFF_FFFF)
    bound = np.uint64(1 << (8 * delta_bytes - 1))
    deltas = (values - values[:, :1]) & mask
    shifted = (deltas + bound) & mask
    return (shifted < np.uint64(1 << (8 * delta_bytes))).all(axis=1)


class BDICompressor(CompressionAlgorithm):
    """Base-Delta-Immediate compressor for 128 B entries."""

    name = "bdi"

    def compressed_sizes(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorised sizes for ``(n, 32)`` uint32 blocks."""
        blocks = as_blocks(blocks)
        n = blocks.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        sizes = np.full(n, MEMORY_ENTRY_BYTES, dtype=np.int64)
        raw = np.ascontiguousarray(blocks).view(np.uint8).reshape(n, -1)

        # Evaluate classes from worst to best so better classes overwrite.
        for cls in sorted(BDI_CLASSES, key=lambda c: -c.compressed_bytes):
            dtype = {2: np.uint16, 4: np.uint32, 8: np.uint64}[cls.base_bytes]
            values = raw.view(dtype).astype(np.uint64)
            fits = _deltas_fit(values, 8 * cls.base_bytes, cls.delta_bytes)
            sizes[fits] = min(cls.compressed_bytes, MEMORY_ENTRY_BYTES)

        qwords = raw.view(np.uint64)
        repeated = (qwords == qwords[:, :1]).all(axis=1)
        sizes[repeated] = _HEADER_BYTES + 8
        sizes[~blocks.any(axis=1)] = _HEADER_BYTES
        return sizes
