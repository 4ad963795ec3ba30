"""The Unified Memory oversubscription model (Fig. 12).

The paper forces 0–40 % oversubscription through an interposer that
hogs device memory, then measures SpecAccel programs under (a) UM
migration and (b) all allocations pinned in host memory.  Findings:
UM's fault-driven migration frequently performs *worse* than pinned
host access, catastrophically so for the random-access 360.ilbdc.

The model reproduces the mechanism.  A benchmark's page-access stream
(derived from its catalog access character) runs against an LRU
residency set sized by the forced oversubscription.  LRU's inclusion
property (Mattson et al., IBM Systems Journal, 1970) lets one
stack-distance pass over the stream price the baseline and every
level of a curve at once (:mod:`repro.um.pages`):

* each fault serialises through the driver (tens of microseconds) and
  migrates a whole 64 KB page over the interconnect;
* sequential/strided codes fault once per page per sweep, so their
  slowdown grows roughly linearly in the non-resident share;
* random-gather codes fault per access once the hot set spills,
  which is the paper's 360.ilbdc collapse.

Pinned mode replaces device bandwidth with sustained interconnect
bandwidth — a constant factor independent of oversubscription.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import rng as rng_lib
from repro.um.pages import lru_faults
from repro.workloads.catalog import AccessPattern, get_benchmark

#: UM migration granularity (bytes).
PAGE_BYTES = 64 * 1024


@dataclass(frozen=True)
class UMConfig:
    """Model parameters for the Power9 + V100 measurement setup.

    Attributes:
        link_gbps: NVLink bandwidth between host and GPU (the paper's
            rig has 3 bricks = 75 GB/s full-duplex).
        device_gbps: Device memory bandwidth.
        fault_us: Driver fault-handling serialisation per page fault.
        fault_batch: Faults the driver coalesces per handling episode.
        access_ns: Mean time per modelled access when resident,
            including the overlapped compute (the baseline time unit).
        footprint_pages: Modelled footprint in pages (scaled).
        accesses_per_page: Mean accesses per resident page per sweep
            for sequential codes (random codes draw i.i.d. pages).
        sweeps: Number of passes over the working set.
        seed: RNG seed for the access stream.
    """

    link_gbps: float = 75.0
    device_gbps: float = 900.0
    fault_us: float = 25.0
    fault_batch: int = 2
    access_ns: float = 100.0
    footprint_pages: int = 2048
    accesses_per_page: int = 16
    sweeps: int = 8
    seed: int = rng_lib.DEFAULT_SEED


@dataclass
class UMResult:
    """One (benchmark, oversubscription) measurement."""

    benchmark: str
    oversubscription: float
    um_slowdown: float
    pinned_slowdown: float
    fault_rate: float


def _page_stream(benchmark: str, config: UMConfig) -> np.ndarray:
    """The benchmark's page access stream (page ids)."""
    character = get_benchmark(benchmark).character
    pages = config.footprint_pages
    hot = max(2, int(pages * character.working_set_fraction))
    # Wide-stencil codes (large stride) make more accesses per page
    # before moving on, so they re-fault less often per unit work.
    reuse = config.accesses_per_page * (2 if character.stride_entries >= 16 else 1)
    per_sweep = hot * config.accesses_per_page
    rng = rng_lib.generator(f"um/{benchmark}", config.seed)

    stride = max(1, character.stride_entries)
    while np.gcd(stride, hot) != 1:
        stride += 1

    sweeps = []
    for _ in range(config.sweeps):
        if character.pattern is AccessPattern.RANDOM:
            sweeps.append(rng.integers(0, hot, per_sweep))
        else:
            # Sequential/strided: consecutive accesses stay on a page.
            page_order = (
                np.arange(hot, dtype=np.int64) * stride % hot
                if character.pattern is AccessPattern.STRIDED
                else np.arange(hot, dtype=np.int64)
            )
            sweeps.append(np.repeat(page_order, reuse))
    return np.concatenate(sweeps)


def um_curve(
    benchmark: str, oversubscriptions, config: UMConfig | None = None
) -> list[UMResult]:
    """Runtime ratios of UM migration vs the fully resident baseline.

    The baseline and every oversubscription level are priced from one
    stack-distance pass over the benchmark's page stream.
    """
    config = config or UMConfig()
    levels = tuple(oversubscriptions)
    for level in levels:
        if not 0.0 <= level < 1.0:
            raise ValueError(f"oversubscription {level} outside [0, 1)")
    stream = _page_stream(benchmark, config)
    accesses = int(stream.size)
    migration_ns = PAGE_BYTES / (config.link_gbps * 1e9) * 1e9
    fault_ns = config.fault_us * 1e3 / config.fault_batch + migration_ns
    # Normalise to the 0 %-oversubscription run, which still pays the
    # cold-start migration — exactly what "runtime relative to
    # original" means in the paper's measurement.
    capacities = [
        max(1, int(config.footprint_pages * (1.0 - level)))
        for level in (0.0, *levels)
    ]
    baseline_faults, *level_faults = lru_faults(stream, capacities)

    def runtime(faults: int) -> float:
        return accesses * config.access_ns + faults * fault_ns

    baseline = runtime(baseline_faults)
    pinned = pinned_slowdown(benchmark, config)
    return [
        UMResult(
            benchmark=benchmark,
            oversubscription=level,
            um_slowdown=runtime(faults) / baseline,
            pinned_slowdown=pinned,
            fault_rate=faults / accesses,
        )
        for level, faults in zip(levels, level_faults)
    ]


def um_slowdown(
    benchmark: str, oversubscription: float, config: UMConfig | None = None
) -> UMResult:
    """Runtime ratio of UM migration vs the fully resident baseline."""
    return um_curve(benchmark, (oversubscription,), config)[0]


def pinned_slowdown(benchmark: str, config: UMConfig | None = None) -> float:
    """Runtime ratio of pinning everything in host memory.

    Every access is served at interconnect bandwidth instead of device
    bandwidth; compute overlap (the benchmark's arithmetic intensity)
    hides part of the gap.
    """
    config = config or UMConfig()
    character = get_benchmark(benchmark).character
    bandwidth_ratio = config.device_gbps / config.link_gbps
    # Memory-bound share of runtime: high-intensity kernels hide more.
    memory_share = 1.0 / (1.0 + character.compute_per_memory / 12.0)
    return 1.0 + (bandwidth_ratio - 1.0) * memory_share
