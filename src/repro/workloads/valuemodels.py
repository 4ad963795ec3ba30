"""Data-pattern primitives with known Bit-Plane-Compression behaviour.

Each 128 B memory-entry generated here belongs to an
:class:`EntryClass` whose BPC-compressed size lands (with high
probability) in a known 32 B-sector bucket:

========  ==========================  ===========  ==============
Class     Pattern                     BPC size     Device sectors
========  ==========================  ===========  ==============
ZERO      all-zero entry              ~2 B         1 (16x-able)
CONST     one repeated word           ~6 B         1 (16x-able)
SECTOR1   random walk, 4-bit deltas   ~26 B        1
SECTOR2   random walk, 11-bit deltas  ~55 B        2
SECTOR3   random walk, 19-bit deltas  ~87 B        3
SECTOR4   uniform random words        128 B        4
========  ==========================  ===========  ==============

Random walks are what BPC is designed for — they model the
homogeneous numeric arrays (fields, indices, activations) that the
paper observes dominate GPU workloads.  The class → sector mapping is
verified empirically by ``tests/test_workloads.py``.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.units import WORDS_PER_ENTRY


class EntryClass(enum.IntEnum):
    """Compressibility class of one 128 B memory-entry."""

    ZERO = 0
    CONST = 1
    SECTOR1 = 2
    SECTOR2 = 3
    SECTOR3 = 4
    SECTOR4 = 5

    @property
    def nominal_sectors(self) -> int:
        """Device sectors the class occupies once sector-quantised."""
        return _NOMINAL_SECTORS[self]

    @property
    def zero_class_eligible(self) -> bool:
        """Whether entries of this class fit the 16x (8 B) slot."""
        return self in (EntryClass.ZERO, EntryClass.CONST)


_NOMINAL_SECTORS = {
    EntryClass.ZERO: 1,
    EntryClass.CONST: 1,
    EntryClass.SECTOR1: 1,
    EntryClass.SECTOR2: 2,
    EntryClass.SECTOR3: 3,
    EntryClass.SECTOR4: 4,
}

#: Random-walk delta magnitude (bits) per sectored class.
_DELTA_BITS = {
    EntryClass.SECTOR1: 4,
    EntryClass.SECTOR2: 11,
    EntryClass.SECTOR3: 19,
}

def generate_entries(
    classes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Generate one 128 B entry per requested class.

    Args:
        classes: ``(n,)`` integer array of :class:`EntryClass` values.
        rng: Source of randomness.

    Returns:
        ``(n, 32)`` uint32 array of memory-entry words.
    """
    classes = np.asarray(classes, dtype=np.int64)
    n = classes.size
    blocks = np.zeros((n, WORDS_PER_ENTRY), dtype=np.uint32)

    const_mask = classes == EntryClass.CONST
    count = int(const_mask.sum())
    if count:
        # Repeated non-zero words: float-one-like palette plus small ints.
        palette = np.array(
            [0x3F800000, 0x3F000000, 0x00000001, 0x0000FFFF, 0x40490FDB],
            dtype=np.uint32,
        )
        choice = rng.integers(0, palette.size, count)
        blocks[const_mask] = palette[choice][:, None]

    for cls, bits in _DELTA_BITS.items():
        mask = classes == cls
        count = int(mask.sum())
        if not count:
            continue
        blocks[mask] = _random_walk(count, bits, rng)

    mask = classes == EntryClass.SECTOR4
    count = int(mask.sum())
    if count:
        blocks[mask] = rng.integers(
            0, 2**32, (count, WORDS_PER_ENTRY), dtype=np.uint32
        )
    return blocks


def _random_walk(n: int, delta_bits: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` entries whose word-to-word deltas span ``delta_bits`` bits.

    BPC's compressed size for such entries is dominated by
    ``delta_bits`` raw bit-planes (~32 bits each); the sign planes
    collapse into a single zero-run.
    """
    bound = 1 << delta_bits
    deltas = rng.integers(-bound, bound, (n, WORDS_PER_ENTRY - 1), dtype=np.int64)
    base = rng.integers(0, 1 << 14, (n, 1), dtype=np.int64)
    words = np.concatenate([base, base + np.cumsum(deltas, axis=1)], axis=1)
    return (words & 0xFFFF_FFFF).astype(np.uint32)


def nominal_sectors_for(classes: np.ndarray) -> np.ndarray:
    """Vectorised nominal sector count per class value."""
    table = np.array([_NOMINAL_SECTORS[c] for c in EntryClass], dtype=np.int64)
    return table[np.asarray(classes, dtype=np.int64)]


def zero_class_eligible_for(classes: np.ndarray) -> np.ndarray:
    """Vectorised 16x (8 B slot) eligibility per class value."""
    table = np.array([c.zero_class_eligible for c in EntryClass])
    return table[np.asarray(classes, dtype=np.int64)]
