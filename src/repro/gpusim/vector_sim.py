"""Vectorized batched-event core for the dependency-driven simulator.

A per-access engine resolves every instruction with a stack of
Python method calls — heap pop, sector mask arithmetic,
``OrderedDict`` cache probes, per-access ``CompressionState`` lookups,
DRAM channel decomposition (the tests keep one such engine as their
oracle, ``tests/sim_oracle.py``).  Profiling shows those per-access
recomputations dominating the Fig. 10/11 hot path, yet almost all of
them are static for a given ``(trace, state, machine)``: the address
never changes, so neither do the sector mask, the cache set, the DRAM
channel/row/bank, the metadata line, the compressed transfer sizes or
the per-hop service times.

This engine therefore splits the simulation into:

1. **Columnar resolution** — every per-access quantity is computed
   for the *whole trace at once* with array operations over the
   :class:`ColumnarTrace` columns and the :class:`CompressionState`
   entry tables
   (:meth:`~repro.gpusim.compression.CompressionState.device_transfer_bytes_table`
   /
   :meth:`~repro.gpusim.compression.CompressionState.buddy_transfer_bytes_table`),
   using :meth:`ChannelSet.decompose` for the DRAM coordinates and
   the :class:`~repro.gpusim.cache.SectoredCache` geometry for the
   cache sets.  Trace/machine geometry
   (:func:`_geometry_columns`) is shared by every compression state;
   the per-state tables (:func:`_state_columns`) are shared by every
   link bandwidth — so the Fig. 11 sweep resolves each benchmark's
   accesses once, not once per design point.  Everything is kept as
   flat C-contiguous ``int64``/``float64`` columns.
2. **An event core** (:mod:`repro.gpusim._event_core`) that advances
   ready warps in the *exact* ``(ready time, sequence)`` order of the
   per-access scheduler over those flat columns.  Cache, DRAM and
   interconnect state transitions are inherently order-dependent, so
   each round's accesses resolve sequentially — but all the
   per-access *derivation* already happened in step 1.  The core has
   two interchangeable implementations behind one interface: an
   always-available pure-Python loop and an optional compiled C
   extension (``_event_core_ext``) that is bit-identical to it (see
   the module docstring of :mod:`repro.gpusim._event_core` for the
   selection rules and ``REPRO_NO_EXT``).

The result is the oracle contract the studies rely on: identical
integer traffic counters (``dram_bytes``, ``link_bytes``, fills, hit
counts) and bit-identical cycle counts to the per-access oracle, at
a fraction of the wall-clock (``tests/test_speed_floors.py`` pins the
speedup; ``tests/test_vector_sim.py`` pins the equivalence and
``tests/test_event_core.py`` pins compiled == pure-Python).

Why the columns are layered the way they are
--------------------------------------------

The resolution tables deliberately split along reuse boundaries:

* :func:`_geometry_columns` depends only on ``(trace, machine
  geometry)`` — addresses, sector masks, cache sets, DRAM
  channel/row/bank coordinates, metadata-line slots.  Every
  compression state of a trace shares one copy, because compression
  never moves an access, it only changes how many bytes the access
  transfers.
* :func:`_state_columns` adds the per-``CompressionState`` tables —
  compressed device/buddy transfer sizes and the per-hop service
  times derived from them.  These are keyed without the interconnect
  (:func:`_machine_key`): link bandwidth only scales the runtime
  divisions inside the event core, so one per-state resolution
  serves the whole Fig. 11 link sweep.

The relaxed engine (below) adds a third layer with the same shape:
the **event tape** recorded by one exact-order run is keyed per
``(trace, state, machine geometry)`` and replayed at every link
bandwidth of the sweep.

The relaxed engine
------------------

``engine="relaxed"`` (:func:`replay_links`) trades exact
scheduling for wall-clock by *freezing the event order*.  One
exact-order pass at the canonical reference interconnect
(:data:`REFERENCE_LINK_GBPS`, the paper's six-brick NVLink2 point that
Fig. 11 normalises against) records a compact per-event tape — who
issued, what it hit, which DRAM channel/row service it consumed,
how many buddy bytes moved.  Every other link bandwidth *replays*
that tape: the order and all traffic outcomes are frozen, and only
the timing recurrences (SM issue slots, channel queues, link
occupancy, warp memory-level parallelism) are recomputed.

The contract this buys (pinned by ``tests/test_relaxed_sim.py``):

* at the reference interconnect the relaxed engine *is* the exact
  engine — bit-identical counters and cycles;
* traffic counters are link-invariant by construction, and within
  :data:`RELAXED_COUNTER_TOLERANCE` of the exact order at every
  other link (whose own counters drift by a similar margin across
  the sweep, because scheduling feeds back into cache order);
* cycles are within :data:`RELAXED_CYCLE_TOLERANCE` everywhere, and
  *exact* where order is provably immaterial — single-warp traces,
  traces whose warps share no memory-system resources, and any
  IDEAL-mode trace without host traffic (no link dependence at all);
* ``verify=`` cross-checks a deterministic sample of runs against
  the exact vectorized engine and raises
  :class:`RelaxedVerificationError` on a contract violation.  That
  engine shares :func:`_geometry_columns` and the event core with
  the tape recorder, so ``verify=`` checks the frozen-order
  approximation only; the tests check that shared code against the
  per-access oracle.
"""

from __future__ import annotations

import hashlib
import struct
import weakref
from dataclasses import replace

import numpy as np

from repro.core.metadata_cache import MetadataCache
from repro.gpusim import _event_core
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.cache import SectoredCache
from repro.gpusim.config import GPUConfig
from repro.gpusim.dram import (
    BANKS_PER_CHANNEL,
    ROW_BYTES,
    ROW_HIT_OVERHEAD,
    ROW_MISS_OVERHEAD,
    ChannelSet,
)
from repro.gpusim.interconnect import TRANSACTION_OVERHEAD_BYTES
from repro.gpusim.trace import KernelTrace, Op
from repro.units import (
    ENTRIES_PER_METADATA_LINE,
    MEMORY_ENTRY_BYTES,
    METADATA_LINE_BYTES,
    SECTOR_BYTES,
    SECTORS_PER_ENTRY,
)

#: Event codes: compute / local load / local store / host load /
#: host store / local store needing the read-modify-write check.
_COMPUTE, _LOAD, _STORE, _HOST_LOAD, _HOST_STORE, _STORE_RMW = range(6)

#: Dirty-sector population count for 4-bit masks (sectored writebacks).
_POPCOUNT4 = [bin(mask).count("1") for mask in range(16)]

_FULL = (1 << SECTORS_PER_ENTRY) - 1

#: The canonical interconnect the relaxed engine resolves traffic at:
#: six NVLink2 bricks, the point Fig. 11 normalises against.  Tape
#: order (and therefore every traffic counter) is frozen at this
#: bandwidth and shared by the whole link sweep.
REFERENCE_LINK_GBPS = 150.0

#: Pinned relaxed-engine tolerances.  Off the reference interconnect,
#: the frozen order deviates from the oracle's link-specific schedule;
#: the observed drift on the Fig. 10/11 grids is well under these
#: bounds (see tests/test_relaxed_sim.py, which sweeps the full grid
#: and asserts the margins).  Counters get a relative bound plus an
#: absolute floor of :data:`RELAXED_COUNTER_FLOOR_EVENTS` transfer
#: events: a benchmark with almost no buddy traffic (370.bt moves a
#: few dozen buddy fills) sees the oracle's *own* counters wander by
#: a handful of borderline evictions between link points, so a purely
#: relative bound on a tiny counter would be noise-tight.
RELAXED_CYCLE_TOLERANCE = 0.01
RELAXED_COUNTER_TOLERANCE = 0.02
RELAXED_COUNTER_FLOOR_EVENTS = 16


class RelaxedVerificationError(AssertionError):
    """A relaxed-engine result broke its contract against the oracle."""


#: Per-trace column memos.  Values hold their states/configs strongly
#: (keeping ids valid); entries die with their trace.
_GEOMETRY_MEMO: "weakref.WeakKeyDictionary[KernelTrace, dict]" = (
    weakref.WeakKeyDictionary()
)
_STATE_MEMO: "weakref.WeakKeyDictionary[KernelTrace, dict]" = (
    weakref.WeakKeyDictionary()
)
#: Relaxed-engine tape memo: (state id, machine key, link latency,
#: link derate) -> (state, tape, reference SimResult).
_TAPE_MEMO: "weakref.WeakKeyDictionary[KernelTrace, dict]" = (
    weakref.WeakKeyDictionary()
)


def _machine_key(config: GPUConfig):
    """Machine geometry key: everything except the interconnect.

    Link bandwidth only scales runtime divisions, so one column
    resolution serves the whole Fig. 11 link sweep.
    """
    return replace(config, link=None)


class _Geometry:
    """Per-(trace, machine) columns shared by every compression state.

    Every slot is a flat C-contiguous ``int64``/``float64`` column (or
    a plain int for the cache-shape scalars) — the struct-of-arrays
    pack the event core consumes directly.  ``rows_cache`` is the
    pure-Python core's memo for the transient row tuples it derives
    from these columns (the compiled core reads the arrays in place).
    """

    __slots__ = (
        "codes_ideal", "codes_packed", "busy",
        "lid", "mask", "l1flat", "l2set", "chan", "row", "bank", "count",
        "hbytes", "hnum",
        "mtag", "mslot", "mchan", "mrow", "mbank",
        "warp_start", "warp_sm", "warp_mlp",
        "l1_sets_total", "l1_ways", "l2_sets", "l2_ways",
        "meta_slots", "meta_ways",
        "rows_cache",
    )


class _StateColumns:
    """Per-(trace, state, machine) resolution tables (flat columns)."""

    __slots__ = (
        "codes", "dev", "serv_hit", "serv_miss", "bud", "bnum",
        "entries", "use_meta", "ideal",
        "wb_dev", "wb_serv", "wb_bud", "wb_bnum",
        "wb_ideal_bytes", "wb_ideal_serv",
        "rows_cache",
    )


def _geometry_columns(trace: KernelTrace, config: GPUConfig) -> _Geometry:
    key = _machine_key(config)
    per_trace = _GEOMETRY_MEMO.get(trace)
    if per_trace is None:
        per_trace = {}
        _GEOMETRY_MEMO[trace] = per_trace
    geometry = per_trace.get(key)
    if geometry is not None:
        return geometry

    col = trace.columnar()
    ops = col.ops.astype(np.int64)
    a = col.a
    b = col.b
    is_mem = ops != int(Op.COMPUTE)
    host_base = (
        trace.footprint_bytes if trace.host_traffic_fraction > 0 else None
    )
    host = (
        (a >= host_base) & is_mem
        if host_base is not None
        else np.zeros(ops.size, dtype=bool)
    )

    # Event codes for the sectored baseline and the compressed modes
    # (the latter mark partial local stores for the RMW check).
    codes_ideal = ops.copy()
    codes_ideal[host & (ops == int(Op.LOAD))] = _HOST_LOAD
    codes_ideal[host & (ops == int(Op.STORE))] = _HOST_STORE
    codes_packed = codes_ideal.copy()
    codes_packed[
        (ops == int(Op.STORE)) & (b < SECTORS_PER_ENTRY) & ~host
    ] = _STORE_RMW

    # Address geometry: line ids, sector masks, cache sets, DRAM
    # coordinates — one batched decompose per trace.
    lid = a // MEMORY_ENTRY_BYTES
    first = (a % MEMORY_ENTRY_BYTES) // SECTOR_BYTES
    count = np.minimum(b, SECTORS_PER_ENTRY - first)
    mask = ((1 << count) - 1) << first
    l1_proto = SectoredCache(config.l1_bytes, config.l1_ways, config.line_bytes)
    l2_proto = SectoredCache(config.l2_bytes, config.l2_ways, config.line_bytes)
    cache_line = a // config.line_bytes
    l1set = cache_line % l1_proto.sets
    l2set = cache_line % l2_proto.sets
    # The owning SM is fixed per warp, so the flat per-(SM, set) L1
    # index resolves at build time too.
    row_counts = np.diff(col.warp_starts)
    row_sm = np.repeat(col.warp_sm.astype(np.int64), row_counts)
    l1flat = row_sm * l1_proto.sets + l1set

    dram = ChannelSet(
        config.dram_channels,
        config.dram_bytes_per_cycle_per_channel,
        config.dram_latency,
        config.line_bytes,
    )
    chan, row, bank = dram.decompose(lid * MEMORY_ENTRY_BYTES)

    def _i64(column):
        return np.ascontiguousarray(column, dtype=np.int64)

    geometry = _Geometry()
    geometry.codes_ideal = _i64(codes_ideal)
    geometry.codes_packed = _i64(codes_packed)
    geometry.busy = np.ascontiguousarray(
        np.where(is_mem, 0, a).astype(np.float64) * config.issue_interval
    )
    geometry.lid = _i64(lid)
    geometry.mask = _i64(mask)
    geometry.l1flat = _i64(l1flat)
    geometry.l2set = _i64(l2set)
    geometry.chan = _i64(chan)
    geometry.row = _i64(row)
    geometry.bank = _i64(bank)
    geometry.count = count

    if host_base is not None:
        hbytes = b * SECTOR_BYTES
        geometry.hbytes = _i64(hbytes)
        geometry.hnum = _i64(hbytes + TRANSACTION_OVERHEAD_BYTES)
    else:
        geometry.hbytes = geometry.hnum = None

    # Metadata line geometry (consumed by BUDDY states only).
    meta = MetadataCache(
        config.metadata_cache_bytes,
        config.metadata_cache_ways,
        config.metadata_cache_slices,
    )
    meta_line = lid // ENTRIES_PER_METADATA_LINE
    mslice = meta_line % meta.slices
    mset = (meta_line // meta.slices) % meta.sets_per_slice
    geometry.mslot = _i64(mslice * meta.sets_per_slice + mset)
    geometry.mtag = _i64(meta_line // (meta.slices * meta.sets_per_slice))
    mchan, mrow, mbank = dram.decompose(meta_line * METADATA_LINE_BYTES)
    geometry.mchan = _i64(mchan)
    geometry.mrow = _i64(mrow)
    geometry.mbank = _i64(mbank)

    # Warp cursors and cache shapes (the event core builds its own
    # stamp tables; only the geometry crosses the boundary).
    geometry.warp_start = _i64(col.warp_starts)
    geometry.warp_sm = _i64(col.warp_sm)
    geometry.warp_mlp = _i64(col.warp_mlp)
    geometry.l1_sets_total = config.sm_count * l1_proto.sets
    geometry.l1_ways = l1_proto.ways
    geometry.l2_sets = l2_proto.sets
    geometry.l2_ways = l2_proto.ways
    geometry.meta_slots = meta.slices * meta.sets_per_slice
    geometry.meta_ways = meta.ways
    geometry.rows_cache = {}

    per_trace[key] = geometry
    return geometry


def _state_columns(
    trace: KernelTrace, state: CompressionState, config: GPUConfig
) -> tuple[_Geometry, _StateColumns]:
    key = (id(state), _machine_key(config))
    per_trace = _STATE_MEMO.get(trace)
    if per_trace is None:
        per_trace = {}
        _STATE_MEMO[trace] = per_trace
    hit = per_trace.get(key)
    if hit is not None and hit[0] is state:
        return hit[1], hit[2]

    geometry = _geometry_columns(trace, config)
    mode = state.mode
    ideal = mode is CompressionMode.IDEAL
    use_meta = mode is CompressionMode.BUDDY
    chan_bpc = config.dram_bytes_per_cycle_per_channel

    entries = state.entries
    entry = geometry.lid % entries
    dev_table = state.device_transfer_bytes_table()
    buddy_table = state.buddy_transfer_bytes_table()
    if ideal:
        dev = geometry.count * SECTOR_BYTES  # sectored fill
    else:
        dev = np.take(dev_table, entry)
    serv = dev / chan_bpc

    columns = _StateColumns()
    columns.codes = (
        geometry.codes_ideal if ideal else geometry.codes_packed
    )
    columns.entries = entries
    columns.use_meta = use_meta
    columns.ideal = ideal
    columns.dev = np.ascontiguousarray(dev, dtype=np.int64)
    columns.serv_hit = np.ascontiguousarray(serv + ROW_HIT_OVERHEAD)
    columns.serv_miss = np.ascontiguousarray(serv + ROW_MISS_OVERHEAD)
    if use_meta:
        bud = np.take(buddy_table, entry)
        columns.bud = np.ascontiguousarray(bud, dtype=np.int64)
        columns.bnum = np.ascontiguousarray(
            bud + TRANSACTION_OVERHEAD_BYTES, dtype=np.int64
        )
    else:
        columns.bud = columns.bnum = None

    # Writeback tables: per-entry for the compressed modes, dirty-mask
    # indexed for the sectored IDEAL baseline.
    if ideal:
        wb_bytes = np.array(
            [
                _POPCOUNT4[m] * SECTOR_BYTES
                for m in range(1 << SECTORS_PER_ENTRY)
            ],
            dtype=np.int64,
        )
        columns.wb_ideal_bytes = wb_bytes
        columns.wb_ideal_serv = wb_bytes / chan_bpc
        columns.wb_dev = columns.wb_serv = None
        columns.wb_bud = columns.wb_bnum = None
    else:
        columns.wb_ideal_bytes = columns.wb_ideal_serv = None
        columns.wb_dev = np.ascontiguousarray(dev_table, dtype=np.int64)
        columns.wb_serv = np.ascontiguousarray(dev_table / chan_bpc)
        columns.wb_bud = np.ascontiguousarray(buddy_table, dtype=np.int64)
        columns.wb_bnum = np.ascontiguousarray(
            buddy_table + TRANSACTION_OVERHEAD_BYTES, dtype=np.int64
        )
    columns.rows_cache = {}
    per_trace[key] = (state, geometry, columns)
    return geometry, columns


class _Tape:
    """A frozen exact-order event stream plus its replay constants.

    ``cols`` holds the compacted struct-of-arrays event stream — the
    12-column pack of :mod:`repro.gpusim._event_core` (kind, warp, SM,
    three float payloads, six int payloads), one row per scheduler
    pop, in the exact ``(ready, sequence)`` order of the recording
    run.  Each row carries everything the timing replay needs — the
    *resolved* resource charges (DRAM service incl. row overhead,
    channel index, metadata outcome, link payload bytes, writeback
    charges).  Cache and row-buffer outcomes are order-determined, so
    they are part of the tape, not of the replay.

    Columns replaced the historical ``events: list[tuple]``: at ~57
    bytes per event they cost a fraction of the tuple stream's boxed
    floats, which is what makes very long tapes safe to memoise
    (``tests/test_event_core.py`` pins the reduction).
    """

    __slots__ = (
        "cols", "warp_mlp", "warp_count", "sm_count", "channels",
        "fill_tail",
    )

    def __init__(self) -> None:
        self.cols = None

    def __reduce__(self):
        # Pickles (the ``sim.tape`` disk form) carry the stable RTAP
        # bytes, so a torn or foreign blob fails inside pickle.loads.
        return deserialize_tape, (serialize_tape(self),)

    @property
    def event_count(self) -> int:
        return 0 if self.cols is None else int(self.cols[0].shape[0])

    @property
    def nbytes(self) -> int:
        """Retained tape storage (the column buffers)."""
        if self.cols is None:
            return 0
        return sum(int(column.nbytes) for column in self.cols)


#: Tape event kinds (the ``kind`` column; payload per kind is the
#: column mapping documented in :mod:`repro.gpusim._event_core`).
_T_COMPUTE = 0      # f0=busy
_T_LOAD_HIT = 1     # f0=latency
_T_LOAD_FILL = 2    # f0=serv f1=mserv f2=wbserv
#                     i0=ch i1=mmiss i2=mch i3=bnum i4=wbch i5=wbbnum
_T_HOST_LOAD = 3    # i0=hnum
_T_STORE = 4        # (no payload)
_T_STORE_WB = 5     # f2=wbserv i4=wbch i5=wbbnum
_T_STORE_RMW = 6    # same payload as _T_LOAD_FILL
_T_HOST_STORE = 7   # i0=hnum
_T_WARP_END = 8     # (no payload)


def run_vectorized(
    trace: KernelTrace, state: CompressionState, config: GPUConfig, tape=None
):
    """The exact engine (``engine="vectorized"``): one simulated run.

    Returns a :class:`repro.gpusim.simulator.SimResult` whose traffic
    counters are identical to the per-access oracle's and whose cycle
    count is bit-identical.  ``tape`` is a :class:`_Tape` to record
    the event stream into while running (:func:`record_tape`'s).
    """
    from repro.gpusim.simulator import SimResult

    geometry, columns = _state_columns(trace, state, config)
    ideal = columns.ideal
    use_meta = columns.use_meta
    record = tape is not None

    chan_bpc = config.dram_bytes_per_cycle_per_channel
    fill_tail = (
        0 if ideal else config.decompression_latency
    ) + config.l2_latency
    meta_serv = METADATA_LINE_BYTES / chan_bpc
    warp_count = geometry.warp_sm.shape[0]

    arrays = (
        columns.codes, geometry.busy,
        geometry.lid, geometry.mask, geometry.l1flat, geometry.l2set,
        geometry.chan, geometry.row, geometry.bank,
        columns.dev, columns.serv_hit, columns.serv_miss,
        columns.bud, columns.bnum,
        geometry.hbytes, geometry.hnum,
        geometry.mtag, geometry.mslot,
        geometry.mchan, geometry.mrow, geometry.mbank,
        columns.wb_dev, columns.wb_serv,
        columns.wb_bud, columns.wb_bnum,
        columns.wb_ideal_bytes, columns.wb_ideal_serv,
        geometry.warp_start, geometry.warp_sm, geometry.warp_mlp,
    )
    iscalars = (
        warp_count, config.sm_count,
        config.dram_channels, BANKS_PER_CHANNEL,
        config.line_bytes, ROW_BYTES, columns.entries,
        geometry.l1_sets_total, geometry.l1_ways,
        geometry.l2_sets, geometry.l2_ways,
        geometry.meta_slots, geometry.meta_ways,
        int(ideal), int(use_meta), _FULL, METADATA_LINE_BYTES,
    )
    fscalars = (
        config.issue_interval,
        float(config.l1_latency),
        float(config.l2_latency),
        float(config.dram_latency),
        config.link.bytes_per_cycle(config.clock_hz),
        float(config.link.latency_cycles),
        float(fill_tail),
        meta_serv + ROW_HIT_OVERHEAD,
        meta_serv + ROW_MISS_OVERHEAD,
        ROW_HIT_OVERHEAD,
        ROW_MISS_OVERHEAD,
    )

    counters, tape_cols = _event_core.run_exact(
        arrays, iscalars, fscalars, record,
        geo_cache=geometry.rows_cache,
        state_cache=columns.rows_cache,
    )
    (
        cycles, l1_hits, l1_misses, l2_hits, l2_misses, dram_bytes,
        link_read_bytes, link_write_bytes, meta_hits, meta_misses,
        buddy_fills, demand_fills,
    ) = counters

    if record:
        tape.cols = tape_cols
        tape.warp_mlp = geometry.warp_mlp
        tape.warp_count = warp_count
        tape.sm_count = config.sm_count
        tape.channels = config.dram_channels
        tape.fill_tail = float(fill_tail)

    l1_total = l1_hits + l1_misses
    l2_total = l2_hits + l2_misses
    meta_total = meta_hits + meta_misses
    return SimResult(
        benchmark=trace.benchmark,
        mode=state.mode.value,
        cycles=cycles,
        instructions=trace.instruction_count,
        l1_hit_rate=l1_hits / l1_total if l1_total else 0.0,
        l2_hit_rate=l2_hits / l2_total if l2_total else 0.0,
        dram_bytes=dram_bytes,
        link_bytes=link_read_bytes + link_write_bytes,
        metadata_hit_rate=meta_hits / meta_total if meta_total else 0.0,
        buddy_fills=buddy_fills,
        demand_fills=demand_fills,
    )


# ---------------------------------------------------------------------------
# The relaxed-order engine: frozen-order tape replay across the link
# sweep.
# ---------------------------------------------------------------------------
def record_tape(
    trace: KernelTrace, state: CompressionState, config, need_tape=True
):
    """Run the exact engine once at the reference interconnect.

    Returns ``(tape, reference)``: the frozen event tape (``None``
    unless ``need_tape``) and the reference :class:`SimResult`
    (:data:`REFERENCE_LINK_GBPS`), which every link bandwidth of the
    same ``(trace, state, machine geometry)`` shares.  Each tape
    taken counts one :func:`tape_recording_count` recording.
    """
    global _TAPE_RECORDINGS
    link = config.link
    if link.bandwidth_gbps == REFERENCE_LINK_GBPS:
        ref_config = config
    else:
        ref_config = replace(
            config, link=replace(link, bandwidth_gbps=REFERENCE_LINK_GBPS)
        )
    tape = _Tape() if need_tape else None
    if need_tape:
        _TAPE_RECORDINGS += 1
    reference = run_vectorized(trace, state, ref_config, tape)
    return tape, reference


def _resolve_tape(
    trace: KernelTrace,
    state: CompressionState,
    config,
    need_tape: bool,
):
    """The memoised :func:`record_tape` of an unkeyed design point.

    Recording is lazy: a point only ever simulated *at* the reference
    interconnect (``need_tape=False``) runs the plain exact engine and
    memoises just the result, so reference-only relaxed runs cost the
    same as vectorized ones and hold no tape.  The first off-reference
    request upgrades the memo by re-running with recording on (the
    rerun is deterministic, so the reference result is unchanged).
    Keyed points resolve their tapes through the artifact store
    instead (see :func:`replay_links`).
    """
    link = config.link
    key = (id(state), _machine_key(config), link.latency_cycles, link.derate)
    per_trace = _TAPE_MEMO.get(trace)
    if per_trace is None:
        per_trace = {}
        _TAPE_MEMO[trace] = per_trace
    hit = per_trace.get(key)
    if hit is not None and hit[0] is state and (
        hit[1] is not None or not need_tape
    ):
        return hit[1], hit[2]
    tape, reference = record_tape(trace, state, config, need_tape)
    per_trace[key] = (state, tape, reference)
    return tape, reference


def _replay_pack(tape: _Tape, config) -> tuple:
    """The ``RF_*`` scalar pack that replays ``tape`` under ``config``."""
    return (
        config.issue_interval,
        float(config.dram_latency),
        float(config.l2_latency),
        config.link.bytes_per_cycle(config.clock_hz),
        float(config.link.latency_cycles),
        tape.fill_tail,
    )


def _replay_cycles(tape: _Tape, configs) -> tuple:
    """Recompute end-to-end cycles along a frozen event tape, once per
    configuration in ``configs``.

    Every traffic outcome (hits, fills, row-buffer state, victim
    choices) is baked into the tape; only the timing recurrences — SM
    issue slots, DRAM channel queues, the two link directions and each
    warp's memory-level-parallelism window — are recomputed with each
    requested interconnect.  At the recording interconnect this
    reproduces the exact engine's cycle count bit for bit (the replay
    uses the same float operations in the same order).
    """
    return _event_core.replay_tape_many(
        tape.cols,
        tape.warp_mlp,
        (tape.warp_count, tape.sm_count, tape.channels),
        [_replay_pack(tape, config) for config in configs],
    )


# ---------------------------------------------------------------------------
# Tape persistence: a stable serialized form plus the ``sim.tape``
# cache namespace, so warm runs and fresh worker processes load tapes
# instead of re-recording them.
# ---------------------------------------------------------------------------

#: Bump when the serialized tape layout changes; stale entries are
#: re-recorded (the format version is part of both the RTAP header and
#: the cache key, so old blobs are simply never addressed again).
TAPE_FORMAT_VERSION = 1

_TAPE_MAGIC = b"RTAP"
#: Header: magic, format version, then event count / warp count /
#: SM count / DRAM channel count as int64 and fill_tail as float64.
_TAPE_HEADER = struct.Struct("<4sBxxxqqqqd")
#: Column dtypes of the 12-column struct-of-arrays pack, in tape
#: order (kind, warp, SM, three float payloads, six int payloads).
_TAPE_COL_DTYPES = (
    "int8", "int32", "int32",
    "float64", "float64", "float64",
    "int32", "int32", "int32", "int32", "int32", "int32",
)

#: Exact-order tape recordings executed (store hits excluded).
_TAPE_RECORDINGS = 0


def serialize_tape(tape: _Tape) -> bytes:
    """Serialize a recorded tape to its stable byte form.

    Layout: the :data:`_TAPE_HEADER` (magic ``RTAP``, format version,
    counts, ``fill_tail``), the ``warp_mlp`` int64 column, then the 12
    event columns in pack order at their :data:`_TAPE_COL_DTYPES`.
    Everything is little-endian and C-contiguous, so equal tapes have
    equal bytes regardless of which core recorded them.
    """
    if tape.cols is None:
        raise ValueError("cannot serialize an unrecorded tape")
    header = _TAPE_HEADER.pack(
        _TAPE_MAGIC,
        TAPE_FORMAT_VERSION,
        tape.event_count,
        tape.warp_count,
        tape.sm_count,
        tape.channels,
        float(tape.fill_tail),
    )
    parts = [
        header,
        np.ascontiguousarray(tape.warp_mlp, dtype=np.int64).tobytes(),
    ]
    for column, dtype in zip(tape.cols, _TAPE_COL_DTYPES):
        parts.append(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return b"".join(parts)


def deserialize_tape(blob: bytes) -> _Tape:
    """Rebuild a :class:`_Tape` from :func:`serialize_tape` bytes.

    Raises ``ValueError`` on a wrong magic, an unknown format version,
    or a byte count that disagrees with the header — a torn or foreign
    blob must never replay as a plausible-looking tape.
    """
    if len(blob) < _TAPE_HEADER.size:
        raise ValueError("tape blob shorter than its header")
    magic, version, n_events, warp_count, sm_count, channels, fill_tail = (
        _TAPE_HEADER.unpack_from(blob)
    )
    if magic != _TAPE_MAGIC:
        raise ValueError(f"not a serialized tape (magic {magic!r})")
    if version != TAPE_FORMAT_VERSION:
        raise ValueError(
            f"serialized tape format {version} != {TAPE_FORMAT_VERSION}"
        )
    if n_events < 0 or warp_count < 0:
        raise ValueError("serialized tape header has negative counts")
    row_bytes = sum(np.dtype(d).itemsize for d in _TAPE_COL_DTYPES)
    expected = _TAPE_HEADER.size + 8 * warp_count + n_events * row_bytes
    if len(blob) != expected:
        raise ValueError(
            f"serialized tape is {len(blob)} bytes, header implies "
            f"{expected}"
        )
    offset = _TAPE_HEADER.size
    warp_mlp = np.frombuffer(
        blob, dtype=np.int64, count=warp_count, offset=offset
    ).copy()
    offset += 8 * warp_count
    cols = []
    for dtype in _TAPE_COL_DTYPES:
        spec = np.dtype(dtype)
        cols.append(
            np.frombuffer(
                blob, dtype=spec, count=n_events, offset=offset
            ).copy()
        )
        offset += n_events * spec.itemsize
    tape = _Tape()
    tape.cols = tuple(cols)
    tape.warp_mlp = warp_mlp
    tape.warp_count = int(warp_count)
    tape.sm_count = int(sm_count)
    tape.channels = int(channels)
    tape.fill_tail = float(fill_tail)
    return tape


def tape_cache_key(benchmark, trace_config, profile_config, config):
    """The ``sim.tape`` cache address of one recorded tape.

    Keyed by everything that determines tape content — the benchmark,
    the trace/profile configuration that synthesises its accesses and
    compression state, the machine geometry (:func:`_machine_key`) and
    the link *latency/derate* — salted with every module this module
    and :mod:`repro.analysis.perf_study` (whose ``prepare_tape``
    derives the recorded state) reach.  Link **bandwidth** and
    ``verify=`` sampling are excluded: the whole Fig. 11 sweep, at any
    verify rate, shares one tape.
    """
    from repro.engine.cache import CacheKey, param_digest
    from repro.engine.salts import code_salt

    digest = param_digest(
        "sim.tape",
        {
            "format": TAPE_FORMAT_VERSION,
            "benchmark": benchmark,
            "trace_config": trace_config,
            "profile_config": profile_config,
            "machine": _machine_key(config),
            "link_latency": config.link.latency_cycles,
            "link_derate": config.link.derate,
        },
        code_salt((__name__, "repro.analysis.perf_study")),
    )
    return CacheKey("sim.tape", digest)


def tape_recording_count() -> int:
    """Process-lifetime count of exact-order tape recordings."""
    return _TAPE_RECORDINGS


def replay_links(
    trace,
    state,
    config,
    links,
    verify: float = 0.0,
    cache_key=None,
):
    """Run the relaxed engine at several link bandwidths in one pass.

    This is the relaxed engine: ``DependencyDrivenSimulator(config,
    "relaxed")`` is a one-link call.  Every non-reference link replays the same frozen
    tape in one :func:`repro.gpusim._event_core.replay_tape_many`
    call, whose per-link result does not depend on the other links,
    so the batch equals a loop of one-link calls bit for bit.
    With a ``cache_key`` (from :func:`tape_cache_key`) and at least
    one off-reference link, the ``(tape, reference)`` pair resolves
    through the process artifact store (:mod:`repro.engine.store`):
    memory, then the installed ``sim.tape`` disk tier — where the
    planner's stage-0 recordings land — and only then a recording.
    Unkeyed calls use the per-trace memo.  ``verify`` keeps its
    per-point deterministic sampling: each link decides
    independently, keyed on the link value exactly as given (``150``
    and ``150.0`` sample differently).  Returns one ``SimResult`` per
    requested link, in order.
    """
    link_configs = [config.with_link(link) for link in links]
    off_reference = [
        link_config
        for link_config in link_configs
        if link_config.link.bandwidth_gbps != REFERENCE_LINK_GBPS
    ]
    if off_reference and cache_key is not None:
        from repro.engine.store import process_store

        tape, reference = process_store().get_or_build(
            cache_key, lambda: record_tape(trace, state, config)
        )
    else:
        tape, reference = _resolve_tape(
            trace, state, config, need_tape=bool(off_reference)
        )
    replayed = iter(
        _replay_cycles(tape, off_reference) if off_reference else ()
    )

    results = []
    for link_config in link_configs:
        at_reference = link_config.link.bandwidth_gbps == REFERENCE_LINK_GBPS
        if at_reference:
            result = reference
        else:
            result = replace(reference, cycles=next(replayed))
        if verify and _verify_selected(trace, state, link_config, verify):
            oracle = run_vectorized(trace, state, link_config)
            check_relaxed_contract(result, oracle, exact=at_reference)
        results.append(result)
    return results


#: Counters the relaxed contract compares against the oracle, with
#: the byte quantum of one event (a whole-entry transfer plus link
#: overhead for the byte counters; a single event for the fills).
_CONTRACT_COUNTERS = (
    ("dram_bytes", MEMORY_ENTRY_BYTES + TRANSACTION_OVERHEAD_BYTES),
    ("link_bytes", MEMORY_ENTRY_BYTES + TRANSACTION_OVERHEAD_BYTES),
    ("buddy_fills", 1),
    ("demand_fills", 1),
)
_CONTRACT_RATES = ("l1_hit_rate", "l2_hit_rate", "metadata_hit_rate")


def check_relaxed_contract(relaxed, oracle, exact: bool) -> None:
    """Assert a relaxed result against an exact-order oracle's.

    ``exact`` (reference interconnect, single-warp traces, provably
    non-contending traces) demands bit-identical results; otherwise
    counters must sit within :data:`RELAXED_COUNTER_TOLERANCE`
    relative — with an absolute floor of
    :data:`RELAXED_COUNTER_FLOOR_EVENTS` transfer events, the scale
    of the oracle's own link-to-link ordering noise — and cycles
    within :data:`RELAXED_CYCLE_TOLERANCE`.  Raises
    :class:`RelaxedVerificationError` on the first violation.
    """
    if exact:
        for field in (
            ("benchmark", "mode", "cycles", "instructions")
            + tuple(name for name, _ in _CONTRACT_COUNTERS)
            + _CONTRACT_RATES
        ):
            got = getattr(relaxed, field)
            want = getattr(oracle, field)
            if got != want:
                raise RelaxedVerificationError(
                    f"relaxed engine diverged from the oracle on "
                    f"{field}: {got!r} != {want!r} (exact point)"
                )
        return
    if (relaxed.benchmark, relaxed.mode, relaxed.instructions) != (
        oracle.benchmark, oracle.mode, oracle.instructions
    ):
        raise RelaxedVerificationError(
            "relaxed engine simulated a different design point than "
            f"the oracle: {relaxed!r} vs {oracle!r}"
        )
    deviation = abs(relaxed.cycles - oracle.cycles) / oracle.cycles
    if deviation > RELAXED_CYCLE_TOLERANCE:
        raise RelaxedVerificationError(
            f"relaxed cycles {relaxed.cycles} deviate from oracle "
            f"{oracle.cycles} by {deviation:.2%} "
            f"(> {RELAXED_CYCLE_TOLERANCE:.2%})"
        )
    for field, quantum in _CONTRACT_COUNTERS:
        got = getattr(relaxed, field)
        want = getattr(oracle, field)
        slack = max(
            RELAXED_COUNTER_FLOOR_EVENTS * quantum,
            RELAXED_COUNTER_TOLERANCE * want,
        )
        if abs(got - want) > slack:
            raise RelaxedVerificationError(
                f"relaxed {field} {got} deviates from oracle {want} "
                f"by more than {RELAXED_COUNTER_TOLERANCE:.2%} "
                f"(+{RELAXED_COUNTER_FLOOR_EVENTS}-event floor)"
            )
    for field in _CONTRACT_RATES:
        got = getattr(relaxed, field)
        want = getattr(oracle, field)
        if abs(got - want) > RELAXED_COUNTER_TOLERANCE:
            raise RelaxedVerificationError(
                f"relaxed {field} {got:.4f} deviates from oracle "
                f"{want:.4f} by more than "
                f"{RELAXED_COUNTER_TOLERANCE:.2%} absolute"
            )


def _verify_selected(trace, state, config, fraction: float) -> bool:
    """Deterministic sampling for the ``verify=`` escape hatch.

    The decision hashes the design point's stable identity (not object
    ids), so a given point is either always or never cross-checked for
    a given fraction — reruns and parallel workers agree.
    """
    if fraction >= 1.0:
        return True
    key = (
        trace.benchmark,
        trace.instruction_count,
        state.mode.value,
        int(state.entries),
        config.link.bandwidth_gbps,
        config.sm_count,
        config.warps_per_sm,
    )
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64 < fraction
