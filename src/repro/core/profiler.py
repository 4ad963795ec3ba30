"""The profiling pass.

Mirrors Section 3.4: the application is first run on a representative
smaller dataset (SpecAccel's ``train`` set; a smaller mini-batch for
DL) while a tool snapshots memory and accumulates per-allocation
histograms of compressed memory-entry sizes.  The output feeds target
selection in :mod:`repro.core.targets`.

The profile is the columnar
:class:`~repro.core.profile_tensor.ProfileTensor`.  A tensor build is
one *stacked* pass: all allocations of all snapshots are compressed by
a single bulk ``compressed_sizes`` call (see
:func:`tensor_from_snapshots` and :func:`bulk_compression_call_count`).
Tensors resolve through the process artifact store
(:mod:`repro.engine.store`): a bounded memory tier over the result
cache the experiment engine installs via :func:`set_tensor_cache`, so
a sweep profiles each (benchmark, config, algorithm) combination
exactly once no matter how many design points it evaluates.
:func:`entry_state_tensor` stores the per-entry state the timing
simulators consume the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import CompressionAlgorithm, as_blocks
from repro.compression.bpc import BPCCompressor
from repro.compression.sectors import sectors_for_sizes
from repro.core.profile_tensor import EntryStateTensor, ProfileTensor
from repro.units import SECTORS_PER_ENTRY, ZERO_CLASS_BYTES
from repro.workloads.snapshots import (
    SnapshotConfig,
    generate_run,
)


# ---------------------------------------------------------------------------
# Tensor construction.
# ---------------------------------------------------------------------------
@dataclass
class _GatheredRun:
    """One benchmark run gathered for a stacked compression pass.

    Splitting the gather from the scatter lets
    :func:`profile_tensors_bulk` concatenate several runs' block
    arrays into a *single* ``compressed_sizes`` call — entries
    compress independently, so the merged call's sizes are
    element-wise identical to per-run calls.
    """

    benchmark: str
    names: tuple[str, ...]
    fractions: np.ndarray
    cells: list[tuple[int, int, int]]  # (position, snapshot, rows)
    blocks: list[np.ndarray]
    snapshot_count: int

    @property
    def rows(self) -> int:
        return sum(rows for _, _, rows in self.cells)


def _gather_run(benchmark: str, snapshots) -> _GatheredRun:
    """Gather a snapshot sequence's blocks and cell map for stacking."""
    order: dict[str, int] = {}
    fractions: dict[str, float] = {}
    blocks: list[np.ndarray] = []
    #: Cell map: (allocation position, snapshot index, entry rows).
    cells: list[tuple[int, int, int]] = []
    snapshot_count = 0
    for snapshot in snapshots:
        for alloc in snapshot.allocations:
            position = order.setdefault(alloc.name, len(order))
            # Per-allocation block framing (incl. padding of ragged
            # tails) must match what a per-cell compressed_sizes call
            # would have seen, so cells are normalised before stacking.
            cell_blocks = as_blocks(alloc.data)
            blocks.append(cell_blocks)
            cells.append((position, snapshot_count, cell_blocks.shape[0]))
            fractions[alloc.name] = alloc.spec.fraction
        snapshot_count += 1
    names = tuple(order)
    appearances = [0] * len(names)
    for position, _, _ in cells:
        appearances[position] += 1
    for name, seen in zip(names, appearances):
        if seen != snapshot_count:
            raise ValueError(
                f"allocation {name!r} present in {seen} of "
                f"{snapshot_count} snapshots; profiles must be rectangular"
            )
    return _GatheredRun(
        benchmark=benchmark,
        names=names,
        fractions=np.array([fractions[name] for name in names]),
        cells=cells,
        blocks=blocks,
        snapshot_count=snapshot_count,
    )


def _scatter_tensor(gathered: _GatheredRun, sizes: np.ndarray) -> ProfileTensor:
    """Scatter one run's slice of bulk sizes into its tensor columns.

    Every entry row is tagged with its (allocation, snapshot) cell, and
    one ``bincount`` over cell and sector bucket fills ``counts``
    (another over the zero-fit rows fills ``zero_fit``).
    """
    names = gathered.names
    shape = (len(names), gathered.snapshot_count)
    cells = np.array(gathered.cells, dtype=np.int64).reshape(-1, 3)
    cell_of_row = np.repeat(cells[:, 0] * shape[1] + cells[:, 1], cells[:, 2])
    sizes = np.asarray(sizes, dtype=np.int64)
    buckets = cell_of_row * SECTORS_PER_ENTRY + sectors_for_sizes(sizes) - 1
    counts = np.bincount(
        buckets, minlength=shape[0] * shape[1] * SECTORS_PER_ENTRY
    ).reshape(shape + (SECTORS_PER_ENTRY,))
    zero_fit = np.bincount(
        cell_of_row[sizes <= ZERO_CLASS_BYTES], minlength=shape[0] * shape[1]
    ).reshape(shape)
    return ProfileTensor(
        benchmark=gathered.benchmark,
        names=names,
        fractions=gathered.fractions,
        counts=counts,
        zero_fit=zero_fit,
    )


def tensor_from_snapshots(
    benchmark: str,
    snapshots,
    algorithm: CompressionAlgorithm | None = None,
) -> ProfileTensor:
    """Build the columnar profile of an explicit snapshot sequence.

    The whole run is compressed in one stacked pass: every allocation
    of every snapshot is gathered into a single ``(N, 32)`` uint32
    block array alongside an (allocation, snapshot) cell map, one bulk
    :meth:`~repro.compression.base.CompressionAlgorithm.compressed_sizes`
    call sizes all of it, and the results are scattered back into the
    tensor's columns.  Per-cell ``compressed_sizes`` calls would give
    element-wise identical sizes (entries are compressed independently;
    the property tests pin this for every registered algorithm), but
    the stacked pass amortises the per-call dispatch across the run —
    the "compress in bulk, off the critical path" structure of the
    paper's offline profiler.
    """
    algorithm = algorithm or BPCCompressor()
    gathered = _gather_run(benchmark, snapshots)
    if not gathered.cells:
        return _scatter_tensor(gathered, np.zeros(0, dtype=np.int64))
    stacked = np.concatenate(gathered.blocks, axis=0)
    sizes = algorithm.compressed_sizes(stacked)
    record_bulk_compression_call()
    return _scatter_tensor(gathered, sizes)


# ---------------------------------------------------------------------------
# Stored tensor access.
# ---------------------------------------------------------------------------
#: Tensor builds actually executed (store hits excluded).
_PROFILE_PASSES = 0

#: Bulk ``compressed_sizes`` calls issued by the stacked profiling
#: pass.  One tensor build performs exactly one, so a sweep's total
#: equals its distinct (benchmark, config, algorithm) combinations.
_BULK_COMPRESSION_CALLS = 0

#: Per-entry state builds actually executed (store hits excluded).
#: Each build generates exactly one snapshot.
_ENTRY_STATE_BUILDS = 0


def profile_pass_count() -> int:
    """Profiling passes (tensor builds) executed by this process."""
    return _PROFILE_PASSES


def bulk_compression_call_count() -> int:
    """Stacked bulk compression calls executed by this process.

    The stacked-profiling contract is asserted against this counter:
    a sweep must compress each (benchmark, config, algorithm)
    combination in exactly one bulk call, however many snapshots,
    allocations and design points it spans.  The Fig. 3 free-size
    study (:func:`repro.analysis.compression_study.free_size_study`)
    records its per-codec bulk calls here too, extending the pinning
    to the multi-codec path.
    """
    return _BULK_COMPRESSION_CALLS


def record_bulk_compression_call() -> None:
    """Record a stacked bulk ``compressed_sizes`` call.

    Called by every code path honouring the stacked-pass contract
    (the profile-tensor build below, the Fig. 3 free-size study), so
    tests can pin "exactly one bulk call per (benchmark, config,
    algorithm)" across all of them.
    """
    global _BULK_COMPRESSION_CALLS
    _BULK_COMPRESSION_CALLS += 1


def entry_state_build_count() -> int:
    """Entry-state reductions executed (not store hits)."""
    return _ENTRY_STATE_BUILDS


def set_tensor_cache(cache):
    """Install the disk tier of the process artifact store.

    The one install hook of :mod:`repro.engine.store`, through which
    profile tensors, entry states and relaxed tapes all resolve.  A
    :class:`~repro.engine.cache.ResultCache` (or ``None``) swaps only
    the disk tier — the memory tier keeps its warm, content-addressed
    values — while an :class:`~repro.engine.store.ArtifactStore` (the
    advisor service's) replaces the process store.  Returns what was
    replaced; pass it back to restore.
    """
    from repro.engine.store import install

    return install(cache)


def clear_profile_cache() -> None:
    """Drop the process store's memory tier (tests, memory pressure)."""
    from repro.engine.store import process_store

    process_store().clear()


def _algorithm_key(algorithm: CompressionAlgorithm) -> str:
    return f"{type(algorithm).__module__}.{type(algorithm).__qualname__}"


def tensor_cache_key(
    benchmark: str,
    config: SnapshotConfig,
    algorithm: CompressionAlgorithm,
):
    """Store address of one profile tensor.

    The sweep planner keys its ``profile_tensor`` nodes with exactly
    this digest, so predicted cache hits in ``repro plan --explain``
    and the planner's read-through agree byte-for-byte with the
    profiler's own lookups.  The salt covers every module this module
    and the algorithm's module reach, so editing a compressor
    invalidates exactly the tensors built with it.
    """
    from repro.engine.cache import CacheKey, param_digest
    from repro.engine.salts import code_salt
    from repro.workloads.catalog import get_benchmark

    digest = param_digest(
        "profile.tensor",
        {
            "benchmark": get_benchmark(benchmark).name,
            "config": config,
            "algorithm": _algorithm_key(algorithm),
        },
        code_salt((__name__, type(algorithm).__module__)),
    )
    return CacheKey("profile.tensor", digest)


def entry_state_cache_key(benchmark: str, config: SnapshotConfig, index: int):
    """Store address of one entry-state tensor."""
    from repro.engine.cache import CacheKey, param_digest
    from repro.engine.salts import code_salt
    from repro.workloads.catalog import get_benchmark

    digest = param_digest(
        "profile.entries",
        {
            "benchmark": get_benchmark(benchmark).name,
            "config": config,
            "index": int(index),
        },
        code_salt((__name__,)),
    )
    return CacheKey("profile.entries", digest)


def profile_tensors_bulk(
    benchmarks,
    config: SnapshotConfig | None = None,
    algorithm: CompressionAlgorithm | None = None,
    built: list | None = None,
) -> dict:
    """Profile several benchmarks through ONE bulk compression call.

    Every benchmark missing from the process artifact store (memory,
    then its disk tier when installed) has its run gathered, all
    gathered block arrays are concatenated, and a single
    ``compressed_sizes`` call sizes the whole batch before per-run
    scatter; each result is stored.  Entries compress independently,
    so each resulting tensor is bit-identical to a solo build — but a
    planned Fig. 7+9 sweep issues one bulk call where the unplanned
    path issues one per benchmark.  ``_PROFILE_PASSES`` advances once
    per tensor actually built, and :func:`record_bulk_compression_call`
    once per stacked call.

    When ``built`` is a list, the names of the benchmarks whose
    tensors were actually built (store hits excluded) are appended to
    it — the planner's generation accounting.
    """
    global _PROFILE_PASSES
    from repro.engine.cache import CacheMiss
    from repro.engine.store import process_store
    from repro.workloads.catalog import get_benchmark

    config = config or SnapshotConfig()
    algorithm = algorithm or BPCCompressor()
    store = process_store()
    keys = {}
    tensors: dict[str, ProfileTensor] = {}
    missing: list[str] = []
    for benchmark in benchmarks:
        name = get_benchmark(benchmark).name
        if name in keys:
            continue
        keys[name] = tensor_cache_key(name, config, algorithm)
        try:
            tensors[name] = store.get(keys[name])
        except CacheMiss:
            missing.append(name)
    if missing:
        gathered = [
            _gather_run(name, generate_run(name, config)) for name in missing
        ]
        blocks = [block for run in gathered for block in run.blocks]
        sizes = np.zeros(0, dtype=np.int64)
        if blocks:
            sizes = algorithm.compressed_sizes(np.concatenate(blocks, axis=0))
            record_bulk_compression_call()
        offset = 0
        for run in gathered:
            rows = run.rows
            tensor = _scatter_tensor(run, sizes[offset : offset + rows])
            offset += rows
            _PROFILE_PASSES += 1
            if built is not None:
                built.append(run.benchmark)
            store.put(keys[run.benchmark], tensor)
            tensors[run.benchmark] = tensor
    return {
        benchmark: tensors[get_benchmark(benchmark).name]
        for benchmark in benchmarks
    }


def profile_tensor(
    benchmark: str,
    config: SnapshotConfig | None = None,
    algorithm: CompressionAlgorithm | None = None,
) -> ProfileTensor:
    """The columnar profile of a benchmark run under ``config``.

    A one-benchmark :func:`profile_tensors_bulk`: resolved through the
    process artifact store under the ``profile.tensor`` namespace, so
    the compact tensor (a few KB) is what persists, not the
    regenerated snapshots.
    """
    return profile_tensors_bulk((benchmark,), config, algorithm)[benchmark]


def entry_state_tensor(
    benchmark: str,
    config: SnapshotConfig | None = None,
    index: int = 0,
) -> EntryStateTensor:
    """The per-entry compression state of one dump of a benchmark run.

    This is the ``profile.tensor`` API extended down to the
    simulators: :class:`repro.gpusim.compression.CompressionState` and
    the trace generator consume the returned
    :class:`~repro.core.profile_tensor.EntryStateTensor` instead of a
    regenerated :class:`~repro.workloads.snapshots.MemorySnapshot`.
    Resolved through the process artifact store under the
    ``profile.entries`` namespace — so a warm Fig. 10/11 sweep
    generates zero snapshots.
    """
    from repro.engine.store import process_store
    from repro.workloads.catalog import get_benchmark
    from repro.workloads.snapshots import generate_snapshot

    config = config or SnapshotConfig()
    name = get_benchmark(benchmark).name

    def build() -> EntryStateTensor:
        global _ENTRY_STATE_BUILDS
        state = generate_snapshot(name, index, config).entry_state()
        _ENTRY_STATE_BUILDS += 1
        return state

    return process_store().get_or_build(
        entry_state_cache_key(name, config, index), build
    )
