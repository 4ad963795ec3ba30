#!/usr/bin/env python
"""Explore the block codecs on your own data.

Feeds several data patterns (and optionally a file) through BPC, BDI
and FPC, reporting compressed sizes, sector quantisation and 16x
zero-class eligibility — a practical view of what Buddy Compression
would do with each 128 B memory-entry.
"""

import sys

import numpy as np

from repro.compression.bdi import BDICompressor
from repro.compression.bpc import BPCCompressor
from repro.compression.fpc import FPCCompressor
from repro.compression.sectors import sectors_for_sizes
from repro.compression.base import as_blocks
from repro.compression.zeroblock import zero_mask
from repro.units import MEMORY_ENTRY_BYTES, ZERO_CLASS_BYTES


def describe(label: str, data: np.ndarray) -> None:
    blocks = as_blocks(data)
    print(f"\n== {label} ({blocks.shape[0]} entries) ==")
    for algorithm in (BPCCompressor(), BDICompressor(), FPCCompressor()):
        sizes = algorithm.compressed_sizes(blocks)
        sectors = sectors_for_sizes(sizes)
        zero_ok = float((sizes <= ZERO_CLASS_BYTES).mean())
        ratio = MEMORY_ENTRY_BYTES / sizes.mean()
        print(
            f"  {algorithm.name:4s} ratio {ratio:5.2f}x  "
            f"mean {sizes.mean():6.1f} B  sectors {sectors.mean():4.2f}  "
            f"16x-eligible {zero_ok:5.1%}"
        )
    print(f"  all-zero entries: {zero_mask(blocks).mean():.1%}")


def main() -> None:
    rng = np.random.default_rng(42)
    describe("smooth fp32 field", np.sin(np.linspace(0, 20, 8192)).astype(np.float32))
    describe("integer indices", np.arange(8192, dtype=np.uint32) // 7)
    describe("gaussian fp32 weights", rng.normal(0, 0.05, 8192).astype(np.float32))
    describe("random bytes", rng.integers(0, 2**32, 4096, dtype=np.uint32))
    describe("zero pool", np.zeros(4096, dtype=np.uint32))

    if len(sys.argv) > 1:
        raw = np.fromfile(sys.argv[1], dtype=np.uint8)
        describe(sys.argv[1], raw)


if __name__ == "__main__":
    main()
