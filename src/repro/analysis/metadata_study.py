"""Fig. 5b: metadata cache hit rate versus total cache size.

The study prices each benchmark's demand-miss metadata stream —
derived from its synthetic trace — on metadata caches of increasing
capacity.  LRU stack distances (Mattson et al., "Evaluation
techniques for storage hierarchies", IBM Systems Journal, 1970) turn
each size into a closed-form count instead of a cache walk: at the
study's two ways per set, an access hits iff its stack distance
within its set is at most one, an O(n) run test over the line stream
stably sorted by set (:func:`two_way_hits`).

At a larger footprint scale than the timing runs (metadata capacity
only matters relative to footprint), the strided large-footprint
codes (351.palm, 355.seismic) stay below the streaming and
small-footprint benchmarks, reproducing the paper's Fig. 5b ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metadata_cache import MetadataCache
from repro.gpusim.trace import Op
from repro.units import ENTRIES_PER_METADATA_LINE, KIB, MEMORY_ENTRY_BYTES
from repro.workloads.traces import TraceConfig, stored_trace

#: Cache sizes swept (total bytes across slices).
DEFAULT_SIZES = tuple(k * KIB for k in (1, 2, 4, 8, 16, 32, 64))


@dataclass
class MetadataStudyRow:
    benchmark: str
    hit_rates: dict[int, float]  # cache bytes -> hit rate


def metadata_access_stream(benchmark: str, config: TraceConfig) -> np.ndarray:
    """Per-access metadata entry indices, in interleaved warp order.

    Derived straight from the trace's columnar representation: memory
    rows are ranked by their position *within* their warp's memory
    stream, then by warp age, which is exactly the historical
    round-robin interleaving across per-warp streams — without ever
    materialising the per-warp tuple lists.
    """
    trace = stored_trace(benchmark, config)
    col = trace.columnar()
    memory_rows = np.flatnonzero(col.ops != int(Op.COMPUTE))
    if memory_rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    entries = col.a[memory_rows] // MEMORY_ENTRY_BYTES
    # Each memory row's warp, and its rank inside that warp's stream.
    starts = col.warp_starts
    row_warp = np.searchsorted(starts, memory_rows, side="right") - 1
    memory_before = np.concatenate(
        ([0], np.cumsum(col.ops != int(Op.COMPUTE)))
    )[starts[:-1]]
    position = np.arange(memory_rows.size) - memory_before[row_warp]
    # Round-robin across warps approximates the issue interleaving:
    # position-major, warp-age-minor.
    order = np.lexsort((row_warp, position))
    return entries[order]


def two_way_hits(lines: np.ndarray, sets: int) -> int:
    """Hits of a 2-way LRU cache with ``sets`` sets over a line stream.

    Line ``l`` maps to set ``l % sets``.  Stably sorted by set, each
    set's accesses form runs of one repeated line; an access hits iff
    it repeats the previous access of its set, or starts a run whose
    run two back is the same line (exactly one other distinct line
    was touched in between).  Equal lines share a set, so comparing
    lines alone never matches across sets.
    """
    # Keys of 16 bits or fewer take NumPy's radix stable sort.
    keys = (lines % sets).astype(np.min_scalar_type(sets - 1))
    by_set = lines[np.argsort(keys, kind="stable")]
    repeats = by_set[1:] == by_set[:-1]
    run_starts = np.ones(by_set.size, dtype=bool)
    run_starts[1:] = ~repeats
    runs = by_set[run_starts]
    return int(np.count_nonzero(repeats)) + int(
        np.count_nonzero(runs[2:] == runs[:-2])
    )


def two_way_hit_rates(lines: np.ndarray, sizes) -> dict[int, float]:
    """Per total size, the hit rate of ``MetadataCache(size, ways=2,
    slices=2)`` over a metadata line stream (0.0 on an empty one)."""
    accesses = int(lines.size)
    hit_rates = {}
    for size in sizes:
        # The cache only supplies (and validates) the geometry.
        cache = MetadataCache(size, ways=2, slices=2)
        hits = two_way_hits(lines, cache.slices * cache.sets_per_slice)
        hit_rates[size] = hits / accesses if accesses else 0.0
    return hit_rates


def metadata_row(
    benchmark: str, sizes, trace_config: TraceConfig
) -> MetadataStudyRow:
    """One benchmark's cache-size sweep (the engine's point unit)."""
    entries = metadata_access_stream(benchmark, trace_config)
    lines = entries // ENTRIES_PER_METADATA_LINE
    return MetadataStudyRow(benchmark, two_way_hit_rates(lines, sizes))


def fig5b_plan(point: dict) -> list:
    """Shared dependency graph of one Fig. 5b design point: the trace
    and the per-entry layout tensor behind it."""
    from repro.engine.planner import EntryStateSpec, TraceSpec

    trace_config = point["trace_config"]
    return [
        EntryStateSpec(
            point["benchmark"],
            trace_config.snapshot_config,
            trace_config.snapshot_index,
        ),
        TraceSpec(point["benchmark"], trace_config),
    ]


def format_metadata_table(rows: list[MetadataStudyRow]) -> str:
    sizes = sorted(next(iter(rows)).hit_rates)
    header = f"{'benchmark':14s} " + " ".join(
        f"{size // KIB:>4d}K" for size in sizes
    )
    lines = [header]
    for row in rows:
        cells = " ".join(f"{row.hit_rates[s]:5.2f}" for s in sizes)
        lines.append(f"{row.benchmark:14s} {cells}")
    return "\n".join(lines)
