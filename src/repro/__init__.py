"""Buddy Compression reproduction.

A production-quality Python reproduction of *Buddy Compression:
Enabling Larger Memory for Deep Learning and HPC Workloads on GPUs*
(Choukse et al., ISCA 2020), including the compression substrate
(BPC and comparison codecs), synthetic workload substrate, the Buddy
Compression engine, a GPU performance simulator, a Unified-Memory
oversubscription model, and the DL-training case-study analytics.

Quickstart::

    from repro import BuddyCompressor
    from repro.core.targets import FINAL

    engine = BuddyCompressor()
    result = engine.run("VGG16", FINAL)
    print(result.compression_ratio, result.buddy_access_fraction)

Experiments run through the :mod:`repro.api` facade (cached,
optionally parallel, mirroring the ``repro`` CLI)::

    import repro

    fig7 = repro.run("compression.fig7").value
    results = repro.sweep(["compression.fig7", "perf.fig11"])
"""

from repro import api
from repro.api import (
    CacheStats,
    RunResult,
    SweepResults,
    cache_stats,
    plan,
    report,
    run,
    sweep,
)
from repro.compression import BPCCompressor
from repro.core import BuddyCompressor, TargetRatio
from repro.units import MEMORY_ENTRY_BYTES, SECTOR_BYTES, SECTORS_PER_ENTRY

__version__ = "1.0.0"

__all__ = [
    "BPCCompressor",
    "BuddyCompressor",
    "TargetRatio",
    "CacheStats",
    "RunResult",
    "SweepResults",
    "api",
    "cache_stats",
    "plan",
    "report",
    "run",
    "sweep",
    "MEMORY_ENTRY_BYTES",
    "SECTOR_BYTES",
    "SECTORS_PER_ENTRY",
    "__version__",
]
