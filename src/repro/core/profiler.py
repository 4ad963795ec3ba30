"""The profiling pass.

Mirrors Section 3.4: the application is first run on a representative
smaller dataset (SpecAccel's ``train`` set; a smaller mini-batch for
DL) while a tool snapshots memory and accumulates per-allocation
histograms of compressed memory-entry sizes.  The output feeds target
selection in :mod:`repro.core.targets`.

The canonical profile representation is the columnar
:class:`~repro.core.profile_tensor.ProfileTensor`; the
:class:`BenchmarkProfile` / :class:`AllocationProfile` classes kept
here are thin views over it for existing callers.  A tensor build is
one *stacked* pass: all allocations of all snapshots are compressed by
a single bulk ``compressed_sizes`` call (see
:func:`tensor_from_snapshots` and :func:`bulk_compression_call_count`).
Tensors are memoised per process and — when the experiment engine
installs its result cache via :func:`set_tensor_cache` — persisted on
disk, so a sweep profiles each (benchmark, config, algorithm)
combination exactly once no matter how many design points it
evaluates.  :func:`entry_state_tensor` extends the same memo/cache
treatment to the per-entry state the timing simulators consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import CompressionAlgorithm, as_blocks
from repro.compression.bpc import BPCCompressor
from repro.core.entry import TargetRatio
from repro.core.histogram import SectorHistogram
from repro.core.profile_tensor import TARGET_INDEX, EntryStateTensor, ProfileTensor
from repro.units import SECTORS_PER_ENTRY
from repro.workloads.snapshots import (
    SnapshotConfig,
    generate_run,
)


@dataclass
class AllocationProfile:
    """View of one allocation's row of a :class:`ProfileTensor`.

    Attributes:
        tensor: The owning profile tensor.
        position: Row on the tensor's allocation axis.
    """

    tensor: ProfileTensor
    position: int

    @property
    def name(self) -> str:
        return self.tensor.names[self.position]

    @property
    def fraction(self) -> float:
        """Fraction of the benchmark footprint."""
        return float(self.tensor.fractions[self.position])

    @property
    def merged(self) -> SectorHistogram:
        """Histogram over all profiling snapshots."""
        return self.tensor.merged_histogram(self.position)

    @property
    def per_snapshot(self) -> list[SectorHistogram]:
        """One histogram view per snapshot (stability checks)."""
        return [
            self.tensor.histogram(self.position, snapshot)
            for snapshot in range(self.tensor.snapshot_count)
        ]

    def worst_overflow(self, target: TargetRatio) -> float:
        """Max over snapshots of the overflow fraction at ``target``.

        This is the "conservative" view the paper's profiler takes:
        355.seismic's compressibility halves over its run, and a
        target chosen from the run average would overflow massively
        late in execution.
        """
        return float(
            self.tensor.worst_overflow[TARGET_INDEX[target], self.position]
        )

    @property
    def worst_zero_overflow(self) -> float:
        """Max over snapshots of the 16x-class overflow fraction."""
        return self.worst_overflow(TargetRatio.X16)


@dataclass
class BenchmarkProfile:
    """Profiling output for one benchmark run (a tensor view)."""

    tensor: ProfileTensor

    @property
    def benchmark(self) -> str:
        return self.tensor.benchmark

    @property
    def allocations(self) -> list[AllocationProfile]:
        return [
            AllocationProfile(self.tensor, position)
            for position in range(self.tensor.allocation_count)
        ]

    def allocation(self, name: str) -> AllocationProfile:
        return AllocationProfile(self.tensor, self.tensor.index(name))

    def program_histogram(self) -> SectorHistogram:
        """Whole-program histogram (what the naive design sees)."""
        return self.tensor.program_histogram()


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
    """Scatter one run's slice of bulk sizes into its tensor columns."""
    names = gathered.names
    counts = np.zeros(
        (len(names), gathered.snapshot_count, SECTORS_PER_ENTRY), np.int64
    )
    zero_fit = np.zeros((len(names), gathered.snapshot_count), np.int64)
    offset = 0
    for position, snapshot, rows in gathered.cells:
        # One SectorHistogram.from_sizes call per cell keeps the
        # sector-bucket / zero-class rule defined in exactly one
        # place; the tensor stores its integer columns.
        histogram = SectorHistogram.from_sizes(sizes[offset : offset + rows])
        counts[position, snapshot] = histogram.sector_counts
        zero_fit[position, snapshot] = histogram.zero_fit
        offset += rows
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
# Memoised / cached tensor access.
# ---------------------------------------------------------------------------
#: Per-process tensor memo: (benchmark, config, algorithm key) -> tensor.
_TENSOR_MEMO: dict[tuple, ProfileTensor] = {}

#: Engine result cache for tensors (installed by the experiment runner).
_TENSOR_CACHE = None

#: Whether the per-process memos above are consulted at all.  The
#: advisor service disables them after installing its own hot cache
#: via :func:`set_tensor_cache`, so residency (and the hit/miss stats
#: the service reports) live in exactly one layer.
_TENSOR_MEMO_ENABLED = True

#: Modules whose source forms the on-disk tensor cache's code salt.
#: The compression algorithm's own defining module is appended per
#: call (see :func:`profile_tensor`), so editing any compressor
#: invalidates exactly the tensors built with it.
_TENSOR_SALT_MODULES = (
    "repro.compression.base",
    "repro.compression.sectors",
    "repro.core.histogram",
    "repro.core.profile_tensor",
    "repro.core.profiler",
    "repro.rng",
    "repro.workloads.calibration",
    "repro.workloads.catalog",
    "repro.workloads.snapshots",
    "repro.workloads.valuemodels",
)

#: Tensor builds actually executed (memo and disk hits excluded).
_PROFILE_PASSES = 0

#: Bulk ``compressed_sizes`` calls issued by the stacked profiling
#: pass.  One tensor build performs exactly one, so a sweep's total
#: equals its distinct (benchmark, config, algorithm) combinations.
_BULK_COMPRESSION_CALLS = 0

#: Per-entry state builds actually executed (memo and disk hits
#: excluded).  Each build generates exactly one snapshot.
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
    """Entry-state reductions executed (not memo/cache hits)."""
    return _ENTRY_STATE_BUILDS


def set_tensor_cache(cache):
    """Install a :class:`repro.engine.cache.ResultCache` for tensors.

    Returns the previously installed cache (or ``None``) so callers
    can restore it; pass ``None`` to uninstall.
    """
    global _TENSOR_CACHE
    previous = _TENSOR_CACHE
    _TENSOR_CACHE = cache
    return previous


def set_tensor_memo_enabled(enabled: bool) -> bool:
    """Enable/disable the per-process tensor memos; returns previous.

    With the memo disabled, every lookup goes straight to the
    installed tensor cache (see :func:`set_tensor_cache`) — the hook
    the advisor service uses to promote the memo to its shared hot
    cache, whose admission/eviction policy and per-namespace counters
    would otherwise be bypassed by memo hits.
    """
    global _TENSOR_MEMO_ENABLED
    previous = _TENSOR_MEMO_ENABLED
    _TENSOR_MEMO_ENABLED = enabled
    return previous


def clear_profile_cache() -> None:
    """Drop the per-process profile memos (tests, memory pressure)."""
    _TENSOR_MEMO.clear()
    _ENTRY_STATE_MEMO.clear()


def _algorithm_key(algorithm: CompressionAlgorithm) -> str:
    return f"{type(algorithm).__module__}.{type(algorithm).__qualname__}"


def tensor_memo_key(
    benchmark: str,
    config: SnapshotConfig,
    algorithm: CompressionAlgorithm,
) -> tuple:
    """The per-process memo key of one profile tensor."""
    from repro.workloads.catalog import get_benchmark

    return (get_benchmark(benchmark).name, config, _algorithm_key(algorithm))


def entry_state_memo_key(
    benchmark: str, config: SnapshotConfig, index: int
) -> tuple:
    """The per-process memo key of one entry-state tensor."""
    from repro.workloads.catalog import get_benchmark

    return (get_benchmark(benchmark).name, config, int(index))


def tensor_cache_key(
    benchmark: str,
    config: SnapshotConfig,
    algorithm: CompressionAlgorithm,
):
    """On-disk cache address of one profile tensor.

    The sweep planner keys its ``profile_tensor`` nodes with exactly
    this digest, so predicted cache hits in ``repro plan --explain``
    and the planner's read-through agree byte-for-byte with the
    profiler's own disk lookups.
    """
    from repro.engine.cache import CacheKey, code_salt, param_digest

    name, cfg, algorithm_key = tensor_memo_key(benchmark, config, algorithm)
    digest = param_digest(
        "profile.tensor",
        {"benchmark": name, "config": cfg, "algorithm": algorithm_key},
        code_salt(_TENSOR_SALT_MODULES + (type(algorithm).__module__,)),
    )
    return CacheKey("profile.tensor", digest)


def entry_state_cache_key(benchmark: str, config: SnapshotConfig, index: int):
    """On-disk cache address of one entry-state tensor."""
    from repro.engine.cache import CacheKey, code_salt, param_digest

    name, cfg, idx = entry_state_memo_key(benchmark, config, index)
    digest = param_digest(
        "profile.entries",
        {"benchmark": name, "config": cfg, "index": idx},
        code_salt(_TENSOR_SALT_MODULES),
    )
    return CacheKey("profile.entries", digest)


def seed_memo(tensors=None, entry_states=None) -> None:
    """Install prebuilt tensors into the per-process memos.

    The planner ships shared-stage results to cacheless point workers
    through this hook (``tensors`` maps :func:`tensor_memo_key` keys to
    :class:`ProfileTensor`, ``entry_states`` maps
    :func:`entry_state_memo_key` keys to
    :class:`~repro.core.profile_tensor.EntryStateTensor`), so point
    execution finds them warm without rebuilding or touching disk.
    """
    if tensors:
        _TENSOR_MEMO.update(tensors)
    if entry_states:
        _ENTRY_STATE_MEMO.update(entry_states)


def profile_tensors_bulk(
    benchmarks,
    config: SnapshotConfig | None = None,
    algorithm: CompressionAlgorithm | None = None,
    built: list | None = None,
) -> dict:
    """Profile several benchmarks through ONE bulk compression call.

    The mega-batched form of :func:`profile_tensor`: every benchmark
    missing from the memo (and, when installed, the disk cache) has
    its run gathered, all gathered block arrays are concatenated, and
    a single ``compressed_sizes`` call sizes the whole batch before
    per-run scatter.  Entries compress independently, so each
    resulting tensor is bit-identical to a solo
    :func:`profile_tensor` build — but a planned Fig. 7+9 sweep
    issues one bulk call where the unplanned path issues one per
    benchmark.  Counter semantics are preserved: ``_PROFILE_PASSES``
    advances once per tensor actually built, and
    :func:`record_bulk_compression_call` once per stacked call.

    When ``built`` is a list, the names of the benchmarks whose
    tensors were actually built (memo and disk hits excluded) are
    appended to it — the planner's generation accounting.
    """
    global _PROFILE_PASSES
    config = config or SnapshotConfig()
    algorithm = algorithm or BPCCompressor()
    tensors: dict[str, ProfileTensor] = {}
    missing: list[str] = []
    for benchmark in benchmarks:
        name, _, _ = tensor_memo_key(benchmark, config, algorithm)
        if name in tensors or name in missing:
            continue
        memo_key = (name, config, _algorithm_key(algorithm))
        tensor = _TENSOR_MEMO.get(memo_key) if _TENSOR_MEMO_ENABLED else None
        if tensor is None and _TENSOR_CACHE is not None:
            from repro.engine.cache import CacheMiss

            try:
                tensor = _TENSOR_CACHE.get(
                    tensor_cache_key(name, config, algorithm)
                )
            except CacheMiss:
                tensor = None
            if tensor is not None and _TENSOR_MEMO_ENABLED:
                _TENSOR_MEMO[memo_key] = tensor
        if tensor is None:
            missing.append(name)
        else:
            tensors[name] = tensor
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
            if _TENSOR_MEMO_ENABLED:
                _TENSOR_MEMO[
                    (run.benchmark, config, _algorithm_key(algorithm))
                ] = tensor
            if _TENSOR_CACHE is not None:
                _TENSOR_CACHE.put(
                    tensor_cache_key(run.benchmark, config, algorithm), tensor
                )
            tensors[run.benchmark] = tensor
    return {
        benchmark: tensors[tensor_memo_key(benchmark, config, algorithm)[0]]
        for benchmark in benchmarks
    }


def profile_tensor(
    benchmark: str,
    config: SnapshotConfig | None = None,
    algorithm: CompressionAlgorithm | None = None,
) -> ProfileTensor:
    """The columnar profile of a benchmark run under ``config``.

    Memoised per process and, when the engine has installed its result
    cache, content-addressed on disk under the ``profile.tensor``
    namespace — the compact tensor (a few KB) is what persists, not the
    regenerated snapshots.
    """
    global _PROFILE_PASSES
    from repro.workloads.catalog import get_benchmark

    config = config or SnapshotConfig()
    algorithm = algorithm or BPCCompressor()
    name = get_benchmark(benchmark).name
    memo_key = (name, config, _algorithm_key(algorithm))
    tensor = _TENSOR_MEMO.get(memo_key) if _TENSOR_MEMO_ENABLED else None
    if tensor is not None:
        return tensor

    cache_key = None
    if _TENSOR_CACHE is not None:
        from repro.engine.cache import CacheMiss

        cache_key = tensor_cache_key(name, config, algorithm)
        try:
            tensor = _TENSOR_CACHE.get(cache_key)
        except CacheMiss:
            tensor = None
        if tensor is not None:
            if _TENSOR_MEMO_ENABLED:
                _TENSOR_MEMO[memo_key] = tensor
            return tensor

    tensor = tensor_from_snapshots(name, generate_run(name, config), algorithm)
    _PROFILE_PASSES += 1
    if _TENSOR_MEMO_ENABLED:
        _TENSOR_MEMO[memo_key] = tensor
    if cache_key is not None:
        _TENSOR_CACHE.put(cache_key, tensor)
    return tensor


#: Per-process entry-state memo: (benchmark, config, index) -> state.
_ENTRY_STATE_MEMO: dict[tuple, EntryStateTensor] = {}


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
    Memoised per process and, when the engine has installed its result
    cache, content-addressed on disk under the ``profile.entries``
    namespace — so a warm Fig. 10/11 sweep generates zero snapshots.
    """
    global _ENTRY_STATE_BUILDS
    from repro.workloads.catalog import get_benchmark
    from repro.workloads.snapshots import generate_snapshot

    config = config or SnapshotConfig()
    name = get_benchmark(benchmark).name
    memo_key = (name, config, int(index))
    state = _ENTRY_STATE_MEMO.get(memo_key) if _TENSOR_MEMO_ENABLED else None
    if state is not None:
        return state

    cache_key = None
    if _TENSOR_CACHE is not None:
        from repro.engine.cache import CacheMiss

        cache_key = entry_state_cache_key(name, config, index)
        try:
            state = _TENSOR_CACHE.get(cache_key)
        except CacheMiss:
            state = None
        if state is not None:
            if _TENSOR_MEMO_ENABLED:
                _ENTRY_STATE_MEMO[memo_key] = state
            return state

    state = generate_snapshot(name, index, config).entry_state()
    _ENTRY_STATE_BUILDS += 1
    if _TENSOR_MEMO_ENABLED:
        _ENTRY_STATE_MEMO[memo_key] = state
    if cache_key is not None:
        _TENSOR_CACHE.put(cache_key, state)
    return state


# ---------------------------------------------------------------------------
# Legacy-shaped entry points.
# ---------------------------------------------------------------------------
def profile_snapshots(
    benchmark: str,
    snapshots,
    algorithm: CompressionAlgorithm | None = None,
) -> BenchmarkProfile:
    """Profile an explicit sequence of memory snapshots."""
    return BenchmarkProfile(
        tensor_from_snapshots(benchmark, snapshots, algorithm)
    )


def profile_benchmark(
    benchmark: str,
    config: SnapshotConfig | None = None,
    algorithm: CompressionAlgorithm | None = None,
) -> BenchmarkProfile:
    """Run the profiling pass on the benchmark's *profile* dataset."""
    config = (config or SnapshotConfig()).as_profile()
    return BenchmarkProfile(profile_tensor(benchmark, config, algorithm))
