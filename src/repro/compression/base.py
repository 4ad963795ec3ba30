"""Common interface for block-compression algorithms.

All algorithms size 128 B *memory-entries* — the paper's compression
granularity — presented as 32 little-endian ``uint32`` words.  Buddy
Compression places an entry by its compressed size alone, so a codec
here is one bulk size function; the per-entry reference each is
checked against is test code (``tests/codec_oracle.py``).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.units import MEMORY_ENTRY_BYTES, WORDS_PER_ENTRY


class CompressionAlgorithm(abc.ABC):
    """A block compressor for 128 B memory-entries."""

    #: Short identifier, e.g. ``"bpc"``.
    name: str = "abstract"

    @abc.abstractmethod
    def compressed_sizes(self, blocks: np.ndarray) -> np.ndarray:
        """Compressed sizes in bytes of many entries at once.

        Args:
            blocks: ``(n, 32)`` array of ``uint32`` words (or anything
                :func:`as_blocks` accepts).

        Returns:
            ``(n,)`` ``int64`` array of sizes, capped at 128: an entry
            that does not compress is stored raw.
        """


def as_blocks(data: np.ndarray) -> np.ndarray:
    """View arbitrary array data as ``(n, 32)`` uint32 memory-entries.

    The input is flattened, viewed as raw bytes, zero-padded to a
    multiple of 128 B, and reshaped.  This mirrors how the paper's
    tooling walked raw memory dumps.
    """
    if data.ndim == 2 and data.dtype == np.uint32 and data.shape[1] == WORDS_PER_ENTRY:
        return data
    raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    remainder = raw.size % MEMORY_ENTRY_BYTES
    if remainder:
        raw = np.concatenate(
            [raw, np.zeros(MEMORY_ENTRY_BYTES - remainder, dtype=np.uint8)]
        )
    return raw.view(np.uint32).reshape(-1, WORDS_PER_ENTRY)
