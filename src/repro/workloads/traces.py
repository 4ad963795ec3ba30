"""Synthetic warp-instruction trace generator.

Builds :class:`repro.gpusim.trace.KernelTrace` objects whose memory
behaviour matches each benchmark's published character (see
:class:`repro.workloads.catalog.TraceCharacter`): DL training kernels
stream fully coalesced GEMM tiles; 354.cg and 360.ilbdc gather single
sectors at random; stencil codes stride with partial coalescing;
FF_HPGMG issues a share of native host-memory copies; FF_Lulesh has
little memory-level parallelism and is exposed to added latency.

Addresses fall inside the same scaled allocation layout the snapshot
generator produces, so the compression state (entry sectors, buddy
overflow) lines up entry-for-entry with the static studies.  The
layout is consumed through the cached
:func:`repro.core.profiler.entry_state_tensor` reduction rather than a
full memory dump, so trace generation triggers zero snapshot
regeneration once the per-entry state is warm (memoised in-process or
persisted in the engine result cache).

Generation itself is not cheap (the per-warp RNG draws are sequential
by design, since they fix the digests), so consumers read traces
through :func:`stored_trace`: one ``trace.columnar`` artifact per
distinct ``(benchmark, TraceConfig)``, generated once per store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import rng as rng_lib
from repro.core.profile_tensor import EntryStateTensor
from repro.core.profiler import entry_state_tensor
from repro.gpusim.trace import ColumnarTrace, KernelTrace, Op
from repro.units import MEMORY_ENTRY_BYTES, SECTOR_BYTES
from repro.workloads.catalog import AccessPattern, get_benchmark
from repro.workloads.snapshots import MemorySnapshot, SnapshotConfig, generate_snapshot


@dataclass(frozen=True)
class TraceConfig:
    """Trace-generation knobs.

    Attributes:
        sm_count: SMs to spread warps over (must match the simulator).
        warps_per_sm: Resident warps per SM.
        memory_instructions_per_warp: Loads+stores per warp.
        snapshot_config: Scaling used for the address space (must
            match the snapshot the compression state is built from).
        snapshot_index: Which dump supplies the allocation layout.
        seed: RNG seed.
    """

    sm_count: int = 16
    warps_per_sm: int = 32
    memory_instructions_per_warp: int = 96
    snapshot_config: SnapshotConfig = SnapshotConfig(scale=1.0 / 2048)
    snapshot_index: int = 5
    seed: int = rng_lib.DEFAULT_SEED


def layout_snapshot(benchmark: str, config: TraceConfig) -> MemorySnapshot:
    """The full memory dump behind a trace's allocation layout.

    Kept for callers needing the dump's data words; the trace
    generator itself consumes the compact :func:`layout_state`.
    """
    return generate_snapshot(
        benchmark, config.snapshot_index, config.snapshot_config
    )


def layout_state(benchmark: str, config: TraceConfig) -> EntryStateTensor:
    """The cached per-entry state supplying a trace's layout."""
    return entry_state_tensor(
        benchmark, config.snapshot_config, config.snapshot_index
    )


def generate_trace(
    benchmark: str, config: TraceConfig | None = None
) -> KernelTrace:
    """Generate the dominant-kernel trace of a benchmark."""
    config = config or TraceConfig()
    bench = get_benchmark(benchmark)
    character = bench.character
    layout = layout_state(bench.name, config)
    footprint = layout.footprint_bytes
    rng = rng_lib.generator(f"trace/{bench.name}", config.seed)

    ranges = layout.allocation_ranges()
    total_warps = config.sm_count * config.warps_per_sm
    hot_map = _hot_entry_map(layout, character.working_set_fraction)
    # Low MLP for latency-sensitive kernels (FF_Lulesh), high for
    # throughput kernels that cover latency with independent loads.
    max_outstanding = max(1, round(12 * (1.0 - character.latency_sensitivity)))

    columns = [
        _warp_stream(
            warp_index, total_warps, footprint, hot_map, character,
            config, rng,
        )
        for warp_index in range(total_warps)
    ]
    lengths = np.array([ops.size for ops, _, _ in columns], dtype=np.int64)
    starts = np.zeros(total_warps + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    columnar = ColumnarTrace(
        ops=np.concatenate([ops for ops, _, _ in columns]).astype(np.int8),
        a=np.concatenate([a for _, a, _ in columns]),
        b=np.concatenate([b for _, _, b in columns]),
        warp_starts=starts,
        warp_sm=(
            np.arange(total_warps, dtype=np.int32) % config.sm_count
        ),
        warp_mlp=np.full(total_warps, max_outstanding, dtype=np.int32),
    )
    return KernelTrace(
        benchmark=bench.name,
        footprint_bytes=footprint,
        allocation_ranges=ranges,
        host_traffic_fraction=character.host_traffic_fraction,
        columnar=columnar,
    )


def trace_cache_key(benchmark: str, config: TraceConfig):
    """The ``trace.columnar`` store address of one generated trace.

    Keyed by the benchmark and its :class:`TraceConfig`, salted with
    every module trace generation (this module) reaches.  The planner's
    ``TraceSpec`` and every consuming point use this one key, so
    Figs. 5b, 10 and 11 share each distinct trace.
    """
    from repro.engine.cache import CacheKey, param_digest
    from repro.engine.salts import code_salt

    digest = param_digest(
        "trace.columnar",
        {"benchmark": benchmark, "trace_config": config},
        code_salt((__name__,)),
    )
    return CacheKey("trace.columnar", digest)


def stored_trace(
    benchmark: str, config: TraceConfig | None = None
) -> KernelTrace:
    """:func:`generate_trace`, read through the process artifact store.

    Loads the trace from the store's disk tier, generating and storing
    it only on a miss (a torn entry is a miss).  Traces never enter
    the store's memory tier, so each caller gets a private copy whose
    per-trace simulator memos die with it; with no disk tier installed
    every call generates afresh.
    """
    from repro.engine.store import process_store

    config = config or TraceConfig()
    return process_store().get_or_build(
        trace_cache_key(benchmark, config),
        lambda: generate_trace(benchmark, config),
    )


def _hot_entry_map(
    layout: EntryStateTensor, working_set_fraction: float
) -> np.ndarray:
    """The kernel's hot set as an array of global entry indices.

    Every allocation contributes chunks of consecutive entries sized
    by ``fraction * access_weight``, so the dynamic access mix over
    allocations reflects their access intensity (DL scratch buffers
    are touched every layer; weight tensors are read once and cached)
    while streaming locality within chunks is preserved.
    """
    weights = np.array(
        [
            float(fraction) * float(weight)
            for fraction, weight in zip(
                layout.fractions, layout.access_weights
            )
        ]
    )
    weights = weights / weights.sum()
    total_hot = max(
        64, int(layout.entries * np.clip(working_set_fraction, 0.05, 1.0))
    )
    pieces = []
    base = 0
    for count, weight in zip(layout.entry_counts, weights):
        n = int(count)
        hot = min(n, max(4, int(round(total_hot * weight))))
        # Evenly spaced chunks of consecutive entries inside the
        # allocation keep DRAM row and metadata-line locality.
        chunks = max(1, hot // 256)
        chunk_len = hot // chunks
        starts = np.linspace(0, max(n - chunk_len, 0), chunks).astype(np.int64)
        for start in starts:
            pieces.append(base + start + np.arange(chunk_len, dtype=np.int64))
        base += n
    hot_map = np.concatenate(pieces)
    return hot_map


def _warp_stream(
    warp_index: int,
    total_warps: int,
    footprint: int,
    hot_map: np.ndarray,
    character,
    config: TraceConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One warp's instruction stream as ``(ops, a, b)`` columns.

    Streaming and strided kernels follow grid-stride loops — warp
    ``w`` touches hot entries ``w, w+W, w+2W, ...`` — which is how
    real GPU kernels cover large arrays and what gives them DRAM row
    locality and shared metadata lines.

    The whole stream is assembled with array operations: each memory
    instruction optionally follows a compute run (``compute[i] > 0``),
    so instruction rows are scattered to ``i + cumsum(has_compute)``.
    """
    hot_entries = hot_map.size

    count = config.memory_instructions_per_warp
    is_load = rng.random(count) < character.load_fraction
    host = rng.random(count) < character.host_traffic_fraction
    compute = rng.poisson(character.compute_per_memory, count)

    pattern = character.pattern
    if pattern is AccessPattern.STREAMING:
        indices = (np.arange(count) * total_warps + warp_index) % hot_entries
        sectors = np.full(count, 4)
        first = np.zeros(count, dtype=np.int64)
    elif pattern is AccessPattern.STRIDED:
        # Stencil sweep: grid-stride over a strided index space, with
        # partially coalesced accesses.  The stride models the
        # stencil's plane extent: wide-plane codes (351.palm,
        # 355.seismic) revisit metadata lines far apart.
        stride = character.stride_entries
        indices = (
            (np.arange(count) * total_warps + warp_index) * stride
        ) % hot_entries
        mean = character.sectors_per_access
        sectors = np.clip(rng.poisson(mean, count), 1, 4)
        first = rng.integers(0, 4, count)
    else:  # RANDOM gather/scatter over the whole hot region
        indices = rng.integers(0, hot_entries, count)
        sectors = np.ones(count, dtype=np.int64)
        first = rng.integers(0, 4, count)

    sectors = sectors.astype(np.int64)
    addresses = hot_map[indices] * MEMORY_ENTRY_BYTES
    addresses = addresses + (
        np.minimum(first, 4 - sectors) * SECTOR_BYTES
    )
    addresses[host] += footprint  # the native host region

    has_compute = compute > 0
    mem_rows = np.arange(count, dtype=np.int64) + np.cumsum(has_compute)
    rows = count + int(has_compute.sum())
    ops = np.empty(rows, dtype=np.int64)
    a = np.empty(rows, dtype=np.int64)
    b = np.zeros(rows, dtype=np.int64)
    compute_rows = mem_rows[has_compute] - 1
    ops[compute_rows] = int(Op.COMPUTE)
    a[compute_rows] = compute[has_compute]
    ops[mem_rows] = np.where(is_load, int(Op.LOAD), int(Op.STORE))
    a[mem_rows] = addresses
    b[mem_rows] = sectors
    return ops, a, b
