"""C-PACK cache compression (Chen et al., IEEE TVLSI 2010).

C-PACK combines static patterns with a small FIFO dictionary of
recently seen words.  Each 32-bit word emits one of:

======  ==============================  ==========
Code    Pattern                         Total bits
======  ==============================  ==========
00      all-zero word                   2
01      uncompressed word               2 + 32
10      full dictionary match           2 + 4
1100    partial match (high 2 bytes)    4 + 4 + 16
1101    word with only low byte set     4 + 8
1110    partial match (high 3 bytes)    4 + 4 + 8
======  ==============================  ==========

Unmatched (``01``) and partially matched words are pushed into the
16-entry FIFO dictionary, as in the original design.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressionAlgorithm, as_blocks
from repro.units import MEMORY_ENTRY_BYTES, WORDS_PER_ENTRY

_DICT_ENTRIES = 16


class CPackCompressor(CompressionAlgorithm):
    """C-PACK compressor for 128 B entries (sequential dictionary).

    Bulk ``(n, 32)`` input runs all entries in lockstep over the 32
    word positions (:meth:`compressed_sizes`): the dictionary state is
    an ``(n, 16)`` array advanced once per position.  Each entry's
    FIFO dictionary is independent — it resets at every entry
    boundary, as entries are independently addressable in hardware —
    and the bulk path is element-wise identical to the word-by-word
    C-PACK of ``tests/codec_oracle.py`` (pinned by property tests).
    """

    name = "cpack"

    def compressed_sizes(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorised bulk sizing: all entries advance in lockstep.

        The sequential dependency is only *within* an entry (each word
        sees the dictionary left by its predecessors), so the loop
        runs over the 32 word positions while every entry's state
        lives in arrays.  Two observations make this exact:

        - matching is order-independent — ``best`` is determined by
          *whether any* dictionary entry matches at each strength, not
          by scan order — so the FIFO can be stored unordered;
        - a capacity-16 FIFO with ``pop(0)`` is a 16-slot circular
          buffer: writing at ``pos % 16`` overwrites exactly the
          oldest entry once 16 words have been pushed.

        A validity mask guards the comparators: an unwritten slot
        holds 0, which can never equal an active word (actives exceed
        0xFF) but *would* false-match the high-2-byte comparator for
        words below 0x10000.
        """
        blocks = as_blocks(blocks)
        n = blocks.shape[0]
        bits = np.zeros(n, dtype=np.int64)
        if n == 0:
            return bits
        dictionary = np.zeros((n, _DICT_ENTRIES), dtype=np.uint32)
        valid = np.zeros((n, _DICT_ENTRIES), dtype=bool)
        pos = np.zeros(n, dtype=np.int64)
        for j in range(WORDS_PER_ENTRY):
            w = blocks[:, j]
            wcol = w[:, None]
            low = w <= 0xFF  # the all-zero pattern is split out below
            full = ((dictionary == wcol) & valid).any(axis=1)
            m3 = (((dictionary >> np.uint32(8)) == (wcol >> np.uint32(8))) & valid).any(axis=1)
            m2 = (((dictionary >> np.uint32(16)) == (wcol >> np.uint32(16))) & valid).any(axis=1)
            bits += np.select(
                [w == 0, low, full, m3, m2],
                [2, 4 + 8, 2 + 4, 4 + 4 + 8, 4 + 4 + 16],
                default=2 + 32,
            )
            push = np.nonzero(~(low | full))[0]
            slot = pos[push] % _DICT_ENTRIES
            dictionary[push, slot] = w[push]
            valid[push, slot] = True
            pos[push] += 1
        return np.minimum((bits + 7) // 8, MEMORY_ENTRY_BYTES)
