"""The profiling pass.

Mirrors Section 3.4: the application is first run on a representative
smaller dataset (SpecAccel's ``train`` set; a smaller mini-batch for
DL) while a tool snapshots memory and accumulates per-allocation
histograms of compressed memory-entry sizes.  The output feeds target
selection in :mod:`repro.core.targets`.

The profile is the columnar
:class:`~repro.core.profile_tensor.ProfileTensor`.  A tensor build is
one *stacked* pass: each dump's allocations are copied into one
preallocated ``(rows, 32)`` block buffer as the dump is generated, and
a single bulk ``compressed_sizes`` call sizes all of it (see
:func:`tensor_from_snapshots` and :func:`bulk_compression_call_count`).
Tensors resolve through the process artifact store
(:mod:`repro.engine.store`): a bounded memory tier over the result
cache the experiment engine installs via :func:`set_tensor_cache`, so
a sweep profiles each (benchmark, config, algorithm) combination
exactly once no matter how many design points it evaluates.  For a
reference-role run the same pass stores the free bytes (sizes
quantized to the free-size set) per (allocation, snapshot) cell
(:func:`free_bytes`, the ``profile.free`` namespace), which is all
Fig. 3 reads.  :func:`entry_state_tensor` stores the per-entry state
the timing simulators consume the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import CompressionAlgorithm, as_blocks
from repro.compression.bpc import BPCCompressor
from repro.compression.sectors import free_sizes_for_sizes, sectors_for_sizes
from repro.compression.zeroblock import zero_mask
from repro.core.profile_tensor import EntryStateTensor, ProfileTensor
from repro.units import (
    MEMORY_ENTRY_BYTES,
    SECTORS_PER_ENTRY,
    WORDS_PER_ENTRY,
    ZERO_CLASS_BYTES,
)
from repro.workloads.snapshots import (
    ROLE_PROFILE,
    SnapshotConfig,
    dump_entries,
    generate_run,
)


# ---------------------------------------------------------------------------
# Tensor construction.
# ---------------------------------------------------------------------------
@dataclass
class _GatheredRun:
    """One benchmark run gathered into a stacked compression pass.

    Splitting the gather from the scatter lets
    :func:`profile_tensors_bulk` stack several runs' blocks into one
    buffer sized by a *single* ``compressed_sizes`` call — entries
    compress independently, so the merged call's sizes are
    element-wise identical to per-run calls.
    """

    benchmark: str
    names: tuple[str, ...]
    fractions: np.ndarray
    cells: list[tuple[int, int, int]]  # (position, snapshot, rows)
    snapshot_count: int

    @property
    def rows(self) -> int:
        return sum(rows for _, _, rows in self.cells)


def _gather_run(benchmark: str, snapshots, out: np.ndarray) -> _GatheredRun:
    """Copy a snapshot sequence's blocks into ``out``, and map its cells.

    ``out`` is this run's ``(rows, 32)`` uint32 slice of the stacked
    buffer; each dump is copied in as it arrives, so a generated run
    is never held whole a second time.
    """
    order: dict[str, int] = {}
    fractions: dict[str, float] = {}
    #: Cell map: (allocation position, snapshot index, entry rows).
    cells: list[tuple[int, int, int]] = []
    snapshot_count = 0
    filled = 0
    for snapshot in snapshots:
        for alloc in snapshot.allocations:
            position = order.setdefault(alloc.name, len(order))
            # Per-allocation block framing (incl. padding of ragged
            # tails) must match what a per-cell compressed_sizes call
            # would have seen, so cells are normalised before stacking.
            cell_blocks = as_blocks(alloc.data)
            rows = cell_blocks.shape[0]
            out[filled : filled + rows] = cell_blocks
            filled += rows
            cells.append((position, snapshot_count, rows))
            fractions[alloc.name] = alloc.spec.fraction
        snapshot_count += 1
    if filled != out.shape[0]:
        raise ValueError(
            f"{benchmark}: gathered {filled} blocks into a {out.shape[0]}-row buffer"
        )
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
        snapshot_count=snapshot_count,
    )


def _size_runs(runs, algorithm: CompressionAlgorithm, free: bool):
    """Gather ``(benchmark, snapshots, rows)`` runs and size them in ONE call.

    The runs' blocks go into one preallocated ``(rows, 32)`` uint32
    buffer, which a single bulk ``compressed_sizes`` call sizes.
    Returns the gathered runs, the per-entry sizes and, when ``free``
    is set, the per-entry free bytes (one ``free_sizes_for_sizes``
    over the same sizes and the buffer's zero mask).
    """
    stacked = np.empty(
        (sum(rows for _, _, rows in runs), WORDS_PER_ENTRY), dtype=np.uint32
    )
    gathered = []
    offset = 0
    for benchmark, snapshots, rows in runs:
        out = stacked[offset : offset + rows]
        gathered.append(_gather_run(benchmark, snapshots, out))
        offset += rows
    sizes = free_sizes = np.zeros(0, dtype=np.int64)
    if stacked.shape[0]:
        sizes = algorithm.compressed_sizes(stacked)
        record_bulk_compression_call()
        if free:
            free_sizes = free_sizes_for_sizes(sizes, zero_mask(stacked))
    return gathered, sizes, free_sizes


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


def _scatter_free(gathered: _GatheredRun, free: np.ndarray) -> np.ndarray:
    """Sum one run's slice of per-entry free bytes per cell.

    Each cell's rows are contiguous in the stacked order, so a cell's
    total is a difference of prefix sums (integer-exact).
    """
    cells = np.array(gathered.cells, dtype=np.int64).reshape(-1, 3)
    ends = np.cumsum(cells[:, 2])
    prefix = np.concatenate(([0], np.cumsum(free, dtype=np.int64)))
    matrix = np.zeros(
        (len(gathered.names), gathered.snapshot_count), dtype=np.int64
    )
    np.add.at(
        matrix,
        (cells[:, 0], cells[:, 1]),
        prefix[ends] - prefix[ends - cells[:, 2]],
    )
    return matrix


def tensor_from_snapshots(
    benchmark: str,
    snapshots,
    algorithm: CompressionAlgorithm | None = None,
) -> ProfileTensor:
    """Build the columnar profile of an explicit snapshot sequence.

    The whole run is compressed in one stacked pass: every allocation
    of every snapshot is copied into a single ``(N, 32)`` uint32
    block buffer alongside an (allocation, snapshot) cell map, one bulk
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
    snapshots = list(snapshots)
    rows = sum(
        -(-alloc.data.nbytes // MEMORY_ENTRY_BYTES)
        for snapshot in snapshots
        for alloc in snapshot.allocations
    )
    [gathered], sizes, _ = _size_runs(
        [(benchmark, snapshots, rows)], algorithm, free=False
    )
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


def profile_pass_count() -> int:
    """Profiling passes (tensor builds) executed by this process."""
    return _PROFILE_PASSES


def bulk_compression_call_count() -> int:
    """Stacked bulk compression calls executed by this process.

    The stacked-profiling contract is asserted against this counter:
    a sweep must compress each (benchmark, config, algorithm)
    combination in exactly one bulk call, however many snapshots,
    allocations and design points it spans.
    """
    return _BULK_COMPRESSION_CALLS


def record_bulk_compression_call() -> None:
    """Record a stacked bulk ``compressed_sizes`` call (the tensor
    builds below), so tests can pin "exactly one bulk call per
    (benchmark, config, algorithm)"."""
    global _BULK_COMPRESSION_CALLS
    _BULK_COMPRESSION_CALLS += 1


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


def _run_key(
    namespace: str,
    benchmark: str,
    config: SnapshotConfig,
    algorithm: CompressionAlgorithm,
):
    from repro.engine.cache import CacheKey, param_digest
    from repro.engine.salts import code_salt
    from repro.workloads.catalog import get_benchmark

    digest = param_digest(
        namespace,
        {
            "benchmark": get_benchmark(benchmark).name,
            "config": config,
            "algorithm": _algorithm_key(algorithm),
        },
        code_salt((__name__, type(algorithm).__module__)),
    )
    return CacheKey(namespace, digest)


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
    return _run_key("profile.tensor", benchmark, config, algorithm)


def free_cache_key(
    benchmark: str,
    config: SnapshotConfig,
    algorithm: CompressionAlgorithm,
):
    """Store address of one run's free bytes (:func:`free_bytes`),
    keyed and salted like :func:`tensor_cache_key`."""
    return _run_key("profile.free", benchmark, config, algorithm)


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


def _build_runs(names, config, algorithm, store, free: bool) -> dict:
    """Generate ``names``' runs and size them in ONE bulk call.

    Each dump is copied into the stacked buffer as it is generated
    (:func:`_size_runs`, with rows from
    :func:`~repro.workloads.snapshots.dump_entries`).  Stores each
    run's profile tensor and, when ``free`` is set, its free bytes,
    and returns ``{name: (tensor, free bytes or None)}``.
    """
    global _PROFILE_PASSES
    sources = [
        (name, generate_run(name, config), dump_entries(name, config) * config.snapshots)
        for name in names
    ]
    gathered, sizes, free_sizes = _size_runs(sources, algorithm, free)
    runs = {}
    offset = 0
    for run in gathered:
        rows = slice(offset, offset + run.rows)
        offset = rows.stop
        tensor = _scatter_tensor(run, sizes[rows])
        _PROFILE_PASSES += 1
        store.put(tensor_cache_key(run.benchmark, config, algorithm), tensor)
        run_free = None
        if free:
            run_free = _scatter_free(run, free_sizes[rows])
            store.put(free_cache_key(run.benchmark, config, algorithm), run_free)
        runs[run.benchmark] = (tensor, run_free)
    return runs


def profile_tensors_bulk(
    benchmarks,
    config: SnapshotConfig | None = None,
    algorithm: CompressionAlgorithm | None = None,
) -> dict:
    """Profile several benchmarks through ONE bulk compression call.

    Every benchmark missing from the process artifact store (memory,
    then its disk tier when installed) has its run generated dump by
    dump into one stacked block buffer, and a single
    ``compressed_sizes`` call sizes the whole batch before per-run
    scatter; each result is stored, a reference-role run's with its
    :func:`free_bytes` (Fig. 3 reads no profile-role run's).
    Entries compress independently, so each resulting tensor is
    bit-identical to a solo build — but a planned Fig. 7+9 sweep
    issues one bulk call where the unplanned path issues one per
    benchmark.  ``_PROFILE_PASSES`` advances once per tensor actually
    built, and :func:`record_bulk_compression_call` once per stacked
    call.  A tensor hit reads nothing else: the free bytes are checked
    by their one reader, :func:`free_bytes`.
    """
    from repro.engine.cache import CacheMiss
    from repro.engine.store import process_store
    from repro.workloads.catalog import get_benchmark

    config = config or SnapshotConfig()
    algorithm = algorithm or BPCCompressor()
    store = process_store()
    tensors: dict[str, ProfileTensor] = {}
    missing: list[str] = []
    for benchmark in benchmarks:
        name = get_benchmark(benchmark).name
        if name in tensors or name in missing:
            continue
        try:
            tensors[name] = store.get(tensor_cache_key(name, config, algorithm))
        except CacheMiss:
            missing.append(name)
    if missing:
        for name, (tensor, _) in _build_runs(
            missing, config, algorithm, store, free=config.role != ROLE_PROFILE
        ).items():
            tensors[name] = tensor
    return {
        benchmark: tensors[get_benchmark(benchmark).name]
        for benchmark in benchmarks
    }


def free_bytes(
    benchmark: str,
    config: SnapshotConfig,
    algorithm: CompressionAlgorithm,
) -> np.ndarray:
    """A run's free bytes per (allocation, snapshot), int64.

    Each cell sums its entries' compressed sizes quantized to Fig. 3's
    free-size set
    (:func:`~repro.compression.sectors.free_sizes_for_sizes`; an
    all-zero entry takes 0 B), as stored under ``profile.free`` by the
    bulk pass that builds a reference-role run's profile tensor.  A
    stored tensor does not imply stored free bytes — a profile-role
    build stores none, a resident value reaches a newly installed disk
    tier only when it is read, and the two are evicted independently —
    so a miss rebuilds the run through that same pass, which stores
    both again.
    """
    from repro.engine.cache import CacheMiss
    from repro.engine.store import process_store
    from repro.workloads.catalog import get_benchmark

    store = process_store()
    name = get_benchmark(benchmark).name
    try:
        return store.get(free_cache_key(name, config, algorithm))
    except CacheMiss:
        pass
    return _build_runs([name], config, algorithm, store, free=True)[name][1]


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

    return process_store().get_or_build(
        entry_state_cache_key(name, config, index),
        lambda: generate_snapshot(name, index, config).entry_state(),
    )
