"""The stacked profiling pass holds each generated dump once.

A bulk tensor build copies every dump into one preallocated block
buffer as the dump is generated, and the BPC size kernel works through
it in small chunks, so the pass peaks near the buffer's own size
instead of holding the run twice (per-allocation arrays plus their
concatenated copy) and the kernel's large-chunk temporaries on top.
"""

import tracemalloc

from repro.core.profiler import (
    clear_profile_cache,
    profile_pass_count,
    profile_tensors_bulk,
)
from repro.units import MEMORY_ENTRY_BYTES
from repro.workloads.snapshots import SnapshotConfig, dump_entries

BENCHMARKS = ("VGG16", "ResNet50", "356.sp", "BigLSTM")


def test_bulk_build_peaks_near_its_stacked_blocks():
    config = SnapshotConfig()
    stacked = sum(
        dump_entries(name, config) * config.snapshots * MEMORY_ENTRY_BYTES
        for name in BENCHMARKS
    )
    # Warm the import-time and per-process state the build touches, at
    # a scale whose own allocations do not count.
    profile_tensors_bulk(BENCHMARKS, SnapshotConfig(scale=1.0 / 262144))
    clear_profile_cache()
    passes = profile_pass_count()
    tracemalloc.start()
    try:
        profile_tensors_bulk(BENCHMARKS, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_profile_cache()
    assert profile_pass_count() - passes == len(BENCHMARKS)
    assert peak <= 1.5 * stacked, f"peak {peak / stacked:.2f}x the stacked blocks"
