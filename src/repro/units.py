"""Unit helpers shared across the library.

The paper mixes units freely (GB footprints, GB/s links, 32 B sectors,
DRAM cycles).  Centralising the constants keeps every module consistent
and makes the Table 1 / Table 2 configuration readable.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

#: The paper's compression granularity: one memory-entry is 128 bytes.
MEMORY_ENTRY_BYTES = 128

#: GPU DRAM access granularity (GDDR5/5X/6 and HBM2 alike): 32 byte sectors.
SECTOR_BYTES = 32

#: Sectors per memory-entry (128 B / 32 B).
SECTORS_PER_ENTRY = MEMORY_ENTRY_BYTES // SECTOR_BYTES

#: Device-resident bytes for the mostly-zero 16x target class.
ZERO_CLASS_BYTES = 8

#: Bytes per metadata line (Section 3.2): size metadata is prefetched
#: one DRAM sector at a time, so the line matches the sector.
METADATA_LINE_BYTES = SECTOR_BYTES

#: Metadata bits per 128 B memory-entry.
METADATA_BITS_PER_ENTRY = 4

#: Entries covered by one metadata line (64 with the paper's codes).
ENTRIES_PER_METADATA_LINE = (
    METADATA_LINE_BYTES * 8 // METADATA_BITS_PER_ENTRY
)

#: Words (uint32) per memory-entry; BPC operates on 32-bit words.
WORDS_PER_ENTRY = MEMORY_ENTRY_BYTES // 4

#: The free compressed sizes assumed by the paper's Fig. 3 study.
FREE_COMPRESSED_SIZES = (0, 8, 16, 32, 64, 80, 96, 128)

#: Page size used by the paper's spatial analysis (Fig. 6).
PAGE_BYTES = 8 * KIB

#: Memory-entries per 8 KB page.
ENTRIES_PER_PAGE = PAGE_BYTES // MEMORY_ENTRY_BYTES


def bytes_to_human(num_bytes: float) -> str:
    """Render a byte count like ``2.83GB`` (decimal units, as Table 1 does)."""
    if num_bytes >= GB:
        return f"{num_bytes / GB:.2f}GB"
    if num_bytes >= MB:
        return f"{num_bytes / MB:.2f}MB"
    if num_bytes >= KB:
        return f"{num_bytes / KB:.2f}KB"
    return f"{num_bytes:.0f}B"
