"""Target compression ratios and per-entry sector arithmetic.

The paper allows per-allocation targets of 1x, 1.33x, 2x and 4x —
4, 3, 2 or 1 of the entry's four 32 B sectors resident in device
memory — chosen to keep sector interleaving simple and aligned.  The
zero-page optimisation adds an aggressive 16x class that keeps only
8 B per 128 B entry in device memory.
"""

from __future__ import annotations

import enum

from repro.units import (
    MEMORY_ENTRY_BYTES,
    SECTOR_BYTES,
    ZERO_CLASS_BYTES,
)


class TargetRatio(enum.Enum):
    """An allocation's annotated target compression ratio."""

    X1 = "1x"
    X1_33 = "1.33x"
    X2 = "2x"
    X4 = "4x"
    X16 = "16x"  # the mostly-zero page class

    @property
    def device_sectors(self) -> int:
        """32 B sectors of each entry resident in device memory.

        The 16x class keeps a sub-sector 8 B slot; it reports 0 here
        and is special-cased by :attr:`device_bytes`.
        """
        return _DEVICE_SECTORS[self]

    @property
    def device_bytes(self) -> int:
        """Device-resident bytes per 128 B entry."""
        if self is TargetRatio.X16:
            return ZERO_CLASS_BYTES
        return self.device_sectors * SECTOR_BYTES

    @property
    def buddy_bytes(self) -> int:
        """Carve-out bytes reserved per entry (the overflow slot)."""
        return MEMORY_ENTRY_BYTES - self.device_bytes

    @property
    def ratio(self) -> float:
        """Nominal capacity expansion of the class."""
        return MEMORY_ENTRY_BYTES / self.device_bytes

    @classmethod
    def from_device_sectors(cls, sectors: int) -> "TargetRatio":
        """The sector-aligned target owning ``sectors`` device sectors."""
        for target, count in _DEVICE_SECTORS.items():
            if target is not cls.X16 and count == sectors:
                return target
        raise ValueError(f"no sector-aligned target with {sectors} sectors")


_DEVICE_SECTORS = {
    TargetRatio.X1: 4,
    TargetRatio.X1_33: 3,
    TargetRatio.X2: 2,
    TargetRatio.X4: 1,
    TargetRatio.X16: 0,
}

#: Sector-aligned targets the profiler may choose, best-first.
ALLOWED_TARGETS: tuple[TargetRatio, ...] = (
    TargetRatio.X4,
    TargetRatio.X2,
    TargetRatio.X1_33,
    TargetRatio.X1,
)
