"""Exact-order event core over compacted struct-of-arrays state.

This module is the extraction point of the hot loops of
:mod:`repro.gpusim.vector_sim`: the exact ``(ready, sequence)``
event scheduler of :func:`~repro.gpusim.vector_sim.run_vectorized`
(:func:`run_exact`) and the frozen-order tape replay of
:func:`~repro.gpusim.vector_sim.replay_links`
(:func:`replay_tape_many`).  Both operate on **flat arrays only** —
the caller hands over a fixed tuple of C-contiguous
``int64``/``float64`` NumPy columns plus scalar tuples, and gets back
a counter tuple (and, when recording, the compacted tape columns).
No dicts, tuples-per-row or Python objects cross the boundary, which
is what makes the loop compilable.

Two interchangeable implementations sit behind the same interface:

* the pure-Python fallback in this file — always available, and the
  reference for the contract;
* the optional C extension :mod:`repro.gpusim._event_core_ext`
  (``_event_core_ext.c``, built by ``setup.py build_ext``) — a
  line-for-line transcription of the fallback using the same IEEE
  double operations in the same order, so counters *and* cycles are
  bit-identical between the two (``tests/test_event_core.py`` pins
  this; the CI ``event-core`` job diffs full study digests).

Each build has exactly one replay body, the one that is fastest where
it runs: the fallback replays one link at a time (:func:`_replay_py`,
looped over the requested links), while the extension's
``replay_many`` advances all links together in one pass over the
tape.  Every lane of ``replay_many`` issues the same double
operations as :func:`_replay_py` at that link, so the results agree.

Selection happens once at import: the extension is used when it
imports and its ``ABI`` constant matches :data:`EXT_ABI` (a stale
``.so`` from an older layout is ignored, not trusted).  Setting
``REPRO_NO_EXT=1`` in the environment forces the pure-Python path;
:func:`force_python` forces it temporarily (the benchmark suite uses
it to measure the compiled speedup in one process).

Array-pack layout
-----------------

``run_exact`` takes ``(arrays, iscalars, fscalars, record)``.
``arrays`` is a 30-tuple indexed by the ``A_*`` constants below; slots
that do not apply to the mode are ``None``.  All per-row columns are
``int64`` except ``busy``/``serv_*`` (``float64``).  ``iscalars`` /
``fscalars`` are indexed by ``I_*`` / ``F_*``.  The recorded tape is
a 12-tuple of parallel columns — ``kind`` (int8), ``w``/``sm``
(int32), three ``float64`` payload columns ``f0..f2`` and six
``int32`` payload columns ``i0..i5`` — with exactly one row per
scheduler pop (``n_rows + warp_count`` rows total).  Per-kind payload
mapping (kinds are the ``_T_*`` codes of ``vector_sim``):

====  ==========================  =========================================
kind  event                       payload
====  ==========================  =========================================
0     compute                     ``f0``\\=busy
1     load, cache hit             ``f0``\\=latency
2/6   load fill / RMW store fill  ``f0``\\=serv ``f1``\\=mserv ``f2``\\=wbserv
                                  ``i0``\\=ch ``i1``\\=mmiss ``i2``\\=mch
                                  ``i3``\\=bnum ``i4``\\=wbch ``i5``\\=wbbnum
3/7   host load / host store      ``i0``\\=hnum
4     store, no timing            —
5     store w/ dirty writeback    ``f2``\\=wbserv ``i4``\\=wbch ``i5``\\=wbbnum
8     warp end                    —
====  ==========================  =========================================

At ~57 B per event the columns replace per-event tuples costing
88–224 B each (tuple header + boxed floats), which is what makes very
long relaxed tapes safe to hold (`tests/test_event_core.py` pins the
reduction).
"""

from __future__ import annotations

import array
import gc
import os
from contextlib import contextmanager
from itertools import repeat

import numpy as np

#: Bump when the array-pack layout changes; a compiled extension whose
#: ``ABI`` constant differs is silently ignored (stale build).
EXT_ABI = 2

_ext = None
_ext_error: str | None = None
_ext_stale = False
if os.environ.get("REPRO_NO_EXT"):
    _ext_error = "disabled by REPRO_NO_EXT"
else:
    try:
        import importlib

        _candidate = importlib.import_module("repro.gpusim._event_core_ext")
    except ImportError as exc:
        _ext_error = f"extension not built ({exc})"
    else:
        if getattr(_candidate, "ABI", None) == EXT_ABI:
            _ext = _candidate
        else:
            _ext_stale = True
            _ext_error = (
                "stale extension build: ABI "
                f"{getattr(_candidate, 'ABI', None)!r} != {EXT_ABI}"
            )

#: Session-scoped override (see :func:`force_python`).
_forced_python = False


def compiled_active() -> bool:
    """Whether calls currently dispatch to the C extension."""
    return _ext is not None and not _forced_python


def describe() -> dict:
    """Attribution record for perf reports (``repro doctor``)."""
    return {
        "event_core": "compiled" if compiled_active() else "python",
        "extension_available": _ext is not None,
        "extension_abi": EXT_ABI,
        "extension_stale": _ext_stale,
        "forced_python": _forced_python or _ext is None,
        "detail": None if _ext is not None else _ext_error,
    }


@contextmanager
def force_python():
    """Temporarily route through the pure-Python implementation.

    Used by the benchmarks to measure compiled-vs-fallback speedups in
    a single process; a no-op when the extension is absent anyway.
    """
    global _forced_python
    previous = _forced_python
    _forced_python = True
    try:
        yield
    finally:
        _forced_python = previous


# -- array-pack indices (mirrored in _event_core_ext.c) ---------------------
(
    A_CODES, A_BUSY, A_LID, A_MASK, A_L1FLAT, A_L2SET,
    A_CHAN, A_ROW, A_BANK,
    A_DEV, A_SERV_HIT, A_SERV_MISS,
    A_BUD, A_BNUM, A_HBYTES, A_HNUM,
    A_MTAG, A_MSLOT, A_MCHAN, A_MROW, A_MBANK,
    A_WB_DEV, A_WB_SERV, A_WB_BUD, A_WB_BNUM,
    A_WB_IDEAL_BYTES, A_WB_IDEAL_SERV,
    A_WARP_START, A_WARP_SM, A_WARP_MLP,
) = range(30)

(
    I_WARP_COUNT, I_SM_COUNT, I_CHANNELS, I_BANKS,
    I_LINE_BYTES, I_ROW_BYTES, I_ENTRIES,
    I_L1_SETS, I_L1_WAYS, I_L2_SETS, I_L2_WAYS,
    I_META_SLOTS, I_META_WAYS,
    I_IDEAL, I_USE_META, I_FULL_MASK, I_META_LINE_BYTES,
) = range(17)

(
    F_INTERVAL, F_L1_LAT, F_L2_LAT, F_DRAM_LAT,
    F_LINK_BPC, F_LINK_LAT, F_FILL_TAIL,
    F_META_SERV_HIT, F_META_SERV_MISS,
    F_ROW_HIT_OV, F_ROW_MISS_OV,
) = range(11)

#: Replay scalar packs (subset of the above, see :func:`replay_tape_many`).
(
    RI_WARP_COUNT, RI_SM_COUNT, RI_CHANNELS,
) = range(3)
(
    RF_INTERVAL, RF_DRAM_LAT, RF_ARRIVAL_LAT,
    RF_LINK_BPC, RF_LINK_LAT, RF_FILL_TAIL,
) = range(6)


def run_exact(arrays, iscalars, fscalars, record, geo_cache=None,
              state_cache=None):
    """One exact-order simulation over the packed columns.

    Returns ``(counters, tape_cols)`` where ``counters`` is
    ``(cycles, l1_hits, l1_misses, l2_hits, l2_misses, dram_bytes,
    link_read_bytes, link_write_bytes, meta_hits, meta_misses,
    buddy_fills, demand_fills)`` and ``tape_cols`` is the 12-column
    tape pack (``None`` unless ``record``).

    ``geo_cache``/``state_cache`` are optional dicts the pure-Python
    implementation uses to keep its derived row tuples across runs of
    the same geometry/state (the compiled path reads the arrays
    directly and ignores them).
    """
    if _ext is not None and not _forced_python:
        # The extension parses scalars with the exact C long-long /
        # double converters; normalise any NumPy scalars up front.
        iscalars = tuple(int(v) for v in iscalars)
        fscalars = tuple(float(v) for v in fscalars)
        tape_cols = None
        if record:
            n_events = arrays[A_CODES].shape[0] + int(iscalars[I_WARP_COUNT])
            tape_cols = (
                np.zeros(n_events, dtype=np.int8),
                np.zeros(n_events, dtype=np.int32),
                np.zeros(n_events, dtype=np.int32),
                np.zeros(n_events, dtype=np.float64),
                np.zeros(n_events, dtype=np.float64),
                np.zeros(n_events, dtype=np.float64),
                np.zeros(n_events, dtype=np.int32),
                np.zeros(n_events, dtype=np.int32),
                np.zeros(n_events, dtype=np.int32),
                np.zeros(n_events, dtype=np.int32),
                np.zeros(n_events, dtype=np.int32),
                np.zeros(n_events, dtype=np.int32),
            )
        counters = _ext.run_exact(arrays, iscalars, fscalars, tape_cols)
        return counters, tape_cols
    return _run_exact_py(
        arrays, iscalars, fscalars, record, geo_cache, state_cache
    )


def replay_tape(tape_cols, warp_mlp, iscalars, fscalars) -> float:
    """Recompute end-to-end cycles along a recorded tape pack at one
    interconnect: :func:`replay_tape_many` with a single pack."""
    return replay_tape_many(tape_cols, warp_mlp, iscalars, (fscalars,))[0]


def replay_tape_many(tape_cols, warp_mlp, iscalars, fscalars_list):
    """Recompute end-to-end cycles along a recorded tape pack, per link.

    ``iscalars`` is ``(warp_count, sm_count, channels)`` (the ``RI_*``
    indices) and ``fscalars_list`` is a sequence of ``(interval,
    dram_lat, arrival_lat, link_bpc, link_lat, fill_tail)`` packs (the
    ``RF_*`` indices), one per requested link point.  Returns a tuple
    of per-link cycle counts.

    Each link's result depends only on its own pack, and is identical
    on both builds (``tests/test_event_core.py`` pins both).  The C
    extension advances every link together in one pass over the tape:
    replay control flow — which branches fire, when a warp's MLP
    window pops — depends only on the tape payloads and integer
    counts, which are link-invariant, so only the small per-link clock
    state differs.  The pure-Python fallback replays the links one
    after another, which is faster in the interpreter than carrying
    a NumPy lane per link.
    """
    packs = tuple(tuple(float(v) for v in pack) for pack in fscalars_list)
    if not packs:
        return ()
    if _ext is not None and not _forced_python:
        return _ext.replay_many(
            tape_cols,
            warp_mlp,
            tuple(int(v) for v in iscalars),
            packs,
        )
    columns = [column.tolist() for column in tape_cols]
    mlp = warp_mlp.tolist()
    return tuple(_replay_py(columns, mlp, iscalars, pack) for pack in packs)


def _record_row(cols, k, w, sm, f0=0.0, f1=0.0, f2=0.0,
                i0=0, i1=0, i2=0, i3=0, i4=0, i5=0):
    tk, tw, tsm, tf0, tf1, tf2, ti0, ti1, ti2, ti3, ti4, ti5 = cols
    tk.append(k)
    tw.append(w)
    tsm.append(sm)
    tf0.append(f0)
    tf1.append(f1)
    tf2.append(f2)
    ti0.append(i0)
    ti1.append(i1)
    ti2.append(i2)
    ti3.append(i3)
    ti4.append(i4)
    ti5.append(i5)


def _cached(cache, key, build):
    if cache is None:
        return build()
    value = cache.get(key)
    if value is None:
        value = build()
        cache[key] = value
    return value


def _run_exact_py(arrays, iscalars, fscalars, record, geo_cache,
                  state_cache):
    """The always-available pure-Python event core.

    A verbatim port of the historical inline loop of
    ``run_vectorized``; the compiled extension transcribes
    *this* function.  Derived row tuples (zips of the input columns)
    are memoised in the caller-owned caches so repeated runs over the
    same geometry pay the conversion once, matching the old
    list-of-tuples columns' steady-state speed.
    """
    from heapq import heappop, heappushpop

    (
        codes_a, busy_a, lid_a, mask_a, l1flat_a, l2set_a,
        chan_a, row_a, bank_a,
        dev_a, servh_a, servm_a,
        bud_a, bnum_a, hbytes_a, hnum_a,
        mtag_a, mslot_a, mchan_a, mrow_a, mbank_a,
        wbdev_a, wbserv_a, wbbud_a, wbbnum_a, wbib_a, wbis_a,
        wstart_a, wsm_a, wmlp_a,
    ) = arrays
    warp_count = int(iscalars[I_WARP_COUNT])
    channels = int(iscalars[I_CHANNELS])
    banks = int(iscalars[I_BANKS])
    line_bytes = int(iscalars[I_LINE_BYTES])
    row_bytes = int(iscalars[I_ROW_BYTES])
    entries = int(iscalars[I_ENTRIES])
    l1_sets_total = int(iscalars[I_L1_SETS])
    l1_ways = int(iscalars[I_L1_WAYS])
    l2_sets = int(iscalars[I_L2_SETS])
    l2_ways = int(iscalars[I_L2_WAYS])
    meta_slots = int(iscalars[I_META_SLOTS])
    meta_ways = int(iscalars[I_META_WAYS])
    ideal = bool(iscalars[I_IDEAL])
    use_meta = bool(iscalars[I_USE_META])
    full_mask = int(iscalars[I_FULL_MASK])
    meta_line_bytes = int(iscalars[I_META_LINE_BYTES])

    interval = fscalars[F_INTERVAL]
    l1_lat = fscalars[F_L1_LAT]
    l2_lat = fscalars[F_L2_LAT]
    dram_lat = fscalars[F_DRAM_LAT]
    link_bpc = fscalars[F_LINK_BPC]
    link_lat = fscalars[F_LINK_LAT]
    fill_tail = fscalars[F_FILL_TAIL]
    meta_serv_hit = fscalars[F_META_SERV_HIT]
    meta_serv_miss = fscalars[F_META_SERV_MISS]
    row_hit_ov = fscalars[F_ROW_HIT_OV]
    row_miss_ov = fscalars[F_ROW_MISS_OV]

    # -- derived row tuples (memoised per geometry/state) -------------
    codes = _cached(geo_cache, ("codes", id(codes_a)), codes_a.tolist)
    busy_col = _cached(geo_cache, "busy", busy_a.tolist)
    probe_rows = _cached(
        geo_cache,
        "probe",
        lambda: list(
            zip(
                lid_a.tolist(), mask_a.tolist(),
                l1flat_a.tolist(), l2set_a.tolist(),
            )
        ),
    )
    host_rows = (
        _cached(
            geo_cache,
            "host",
            lambda: list(zip(hbytes_a.tolist(), hnum_a.tolist())),
        )
        if hbytes_a is not None
        else None
    )
    meta_rows = (
        _cached(
            geo_cache,
            "meta",
            lambda: list(
                zip(
                    mtag_a.tolist(), mslot_a.tolist(), mchan_a.tolist(),
                    mrow_a.tolist(), mbank_a.tolist(),
                )
            ),
        )
        if use_meta
        else None
    )

    def _build_fill():
        fm_iter = mask_a.tolist() if ideal else repeat(full_mask)
        base = (
            dev_a.tolist(), servh_a.tolist(), servm_a.tolist(),
            chan_a.tolist(), row_a.tolist(), bank_a.tolist(), fm_iter,
        )
        if use_meta:
            return list(zip(*base, bud_a.tolist(), bnum_a.tolist()))
        return list(zip(*base))

    fill_rows = _cached(state_cache, "fill", _build_fill)

    def _build_wb():
        return (
            wbdev_a.tolist() if wbdev_a is not None else None,
            wbserv_a.tolist() if wbserv_a is not None else None,
            wbbud_a.tolist() if wbbud_a is not None else None,
            wbbnum_a.tolist() if wbbnum_a is not None else None,
            wbib_a.tolist() if wbib_a is not None else None,
            wbis_a.tolist() if wbis_a is not None else None,
        )

    wb_dev, wb_serv, wb_bud, wb_bnum, wb_ideal_bytes, wb_ideal_serv = (
        _cached(state_cache, "wb", _build_wb)
    )

    starts, warp_sm, warp_mlp = _cached(
        geo_cache,
        "warps",
        lambda: (wstart_a.tolist(), wsm_a.tolist(), wmlp_a.tolist()),
    )

    # -- memory-system state ------------------------------------------
    l1_masks: list[dict] = [{} for _ in range(l1_sets_total)]
    l2_masks: list[dict] = [{} for _ in range(l2_sets)]
    l2_dirty: list[dict] = [{} for _ in range(l2_sets)]
    meta_flat: list[list] = [[] for _ in range(meta_slots)]

    next_free = [0.0] * channels
    open_rows = [-1] * (channels * banks)
    link_read_free = 0.0
    link_write_free = 0.0

    # -- counters ------------------------------------------------------
    l1_hits = l1_misses = 0
    l2_hits = l2_misses = 0
    dram_bytes = 0
    link_read_bytes = link_write_bytes = 0
    meta_hits = meta_misses = 0
    buddy_fills = demand_fills = 0
    rmw_counter = 0

    # NOTE: the event core below is fully inlined — no closures.  A
    # nested helper capturing the loop's counters would turn them (and
    # every other shared local) into cell variables, degrading the
    # hottest loads/stores from LOAD_FAST to LOAD_DEREF across the
    # whole loop (~2.5x slower core).  The writeback and RMW-fill
    # blocks are therefore spelled out at each of their call sites.

    # -- warp state ----------------------------------------------------
    ips = starts[:warp_count]
    ends = starts[1:]
    outstanding: list[list] = [[] for _ in range(warp_count)]
    out_heads = [0] * warp_count
    sm_free = [0.0] * int(iscalars[I_SM_COUNT])
    heap = [(0.0, w, w) for w in range(warp_count)]
    sequence = warp_count
    finish = 0.0
    pushpop = heappushpop

    if record:
        tcols = (
            array.array("b"), array.array("i"), array.array("i"),
            array.array("d"), array.array("d"), array.array("d"),
            array.array("i"), array.array("i"), array.array("i"),
            array.array("i"), array.array("i"), array.array("i"),
        )
        rec = _record_row

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # -- the event core -------------------------------------------
        event = heappop(heap) if heap else None
        while event is not None:
            ready, _, w = event
            i = ips[w]
            if i == ends[w]:
                out = outstanding[w]
                head = out_heads[w]
                if len(out) > head:
                    last = max(out[head:])
                    if last > finish:
                        finish = last
                if ready > finish:
                    finish = ready
                if record:
                    rec(tcols, 8, w, 0)
                event = heappop(heap) if heap else None
                continue
            ips[w] = i + 1
            sm = warp_sm[w]
            free = sm_free[sm]
            issue = ready if ready > free else free
            code = codes[i]

            if code == 0:  # _COMPUTE
                next_ready = issue + busy_col[i]
                sm_free[sm] = next_ready
                if record:
                    rec(tcols, 0, w, sm, busy_col[i])
            elif code == 1:  # _LOAD
                sm_free[sm] = issue + interval
                lid, msk, flat1, s2 = probe_rows[i]
                d1 = l1_masks[flat1]
                e1 = d1.get(lid)
                if e1 is not None and e1 & msk == msk:
                    l1_hits += 1
                    del d1[lid]
                    d1[lid] = e1
                    done = issue + l1_lat
                    if record:
                        rec(tcols, 1, w, sm, l1_lat)
                else:
                    l1_misses += 1
                    d2 = l2_masks[s2]
                    e2 = d2.get(lid)
                    if e2 is not None and e2 & msk == msk:
                        l2_hits += 1
                        del d2[lid]
                        d2[lid] = e2
                        done = issue + l2_lat
                        if record:
                            rec(tcols, 1, w, sm, l2_lat)
                    else:
                        l2_misses += 1
                        arrival = issue + l2_lat
                        demand_fills += 1
                        if record:
                            r_serv = r_mserv = r_wbserv = 0.0
                            r_ch = r_mmiss = r_mch = 0
                            r_bnum = r_wbch = r_wbbnum = 0
                        if use_meta:
                            (
                                dev, sh, sm_, ch, rw, bk, fm, bud, bnum,
                            ) = fill_rows[i]
                        else:
                            dev, sh, sm_, ch, rw, bk, fm = fill_rows[i]
                        # The sectored baseline requests even a
                        # zero-sector fill (degenerate traces):
                        # the oracle charges the channel overhead.
                        if dev or ideal:
                            if open_rows[bk] == rw:
                                serv = sh
                            else:
                                serv = sm_
                                open_rows[bk] = rw
                            free = next_free[ch]
                            start = free if free > arrival else arrival
                            end = start + serv
                            next_free[ch] = end
                            dram_bytes += dev
                            done = end + dram_lat
                            if record:
                                r_serv = serv
                                r_ch = ch
                        else:
                            done = arrival
                        if use_meta:
                            mt, ms, mc, mr, mb = meta_rows[i]
                            ways = meta_flat[ms]
                            if mt in ways:
                                ways.remove(mt)
                                ways.append(mt)
                                meta_hits += 1
                                meta_ready = arrival
                            else:
                                meta_misses += 1
                                ways.append(mt)
                                if len(ways) > meta_ways:
                                    ways.pop(0)
                                if open_rows[mb] == mr:
                                    serv = meta_serv_hit
                                else:
                                    serv = meta_serv_miss
                                    open_rows[mb] = mr
                                free = next_free[mc]
                                start = (
                                    free if free > arrival else arrival
                                )
                                end = start + serv
                                next_free[mc] = end
                                dram_bytes += meta_line_bytes
                                meta_ready = end + dram_lat
                                if meta_ready > done:
                                    done = meta_ready
                                if record:
                                    r_mmiss = 1
                                    r_mserv = serv
                                    r_mch = mc
                            if bud:
                                start = (
                                    link_read_free
                                    if link_read_free > meta_ready
                                    else meta_ready
                                )
                                end = start + bnum / link_bpc
                                link_read_free = end
                                link_read_bytes += bud
                                buddy_fills += 1
                                t = end + link_lat
                                if t > done:
                                    done = t
                                if record:
                                    r_bnum = bnum
                        # Install (full line for compressed fills).
                        if e2 is not None:
                            del d2[lid]
                            d2[lid] = e2 | fm
                        else:
                            if len(d2) >= l2_ways:
                                victim = next(iter(d2))
                                del d2[victim]
                                dirty_mask = l2_dirty[s2].pop(victim, 0)
                                if dirty_mask:
                                    # Writeback (dirty eviction).
                                    if ideal:
                                        num = wb_ideal_bytes[dirty_mask]
                                        serv = wb_ideal_serv[dirty_mask]
                                    else:
                                        ventry = victim % entries
                                        num = wb_dev[ventry]
                                        serv = wb_serv[ventry]
                                    if num:
                                        vch = victim % channels
                                        vrow = victim * line_bytes // row_bytes
                                        vbk = vch * banks + vrow % banks
                                        if open_rows[vbk] == vrow:
                                            serv = serv + row_hit_ov
                                        else:
                                            serv = serv + row_miss_ov
                                            open_rows[vbk] = vrow
                                        vfree = next_free[vch]
                                        vstart = (
                                            vfree
                                            if vfree > arrival
                                            else arrival
                                        )
                                        next_free[vch] = vstart + serv
                                        dram_bytes += num
                                        if record:
                                            r_wbserv = serv
                                            r_wbch = vch
                                    if use_meta:
                                        vbud = wb_bud[victim % entries]
                                        if vbud:
                                            vstart = (
                                                link_write_free
                                                if link_write_free
                                                > arrival
                                                else arrival
                                            )
                                            link_write_free = (
                                                vstart
                                                + wb_bnum[
                                                    victim % entries
                                                ]
                                                / link_bpc
                                            )
                                            link_write_bytes += vbud
                                            if record:
                                                r_wbbnum = wb_bnum[
                                                    victim % entries
                                                ]
                            d2[lid] = fm
                        done = done + fill_tail
                        if record:
                            rec(
                                tcols, 2, w, sm, r_serv, r_mserv,
                                r_wbserv, r_ch, r_mmiss, r_mch, r_bnum,
                                r_wbch, r_wbbnum,
                            )
                    # L1 fill (never dirty; evictions are silent).
                    if e1 is not None:
                        del d1[lid]
                        d1[lid] = e1 | msk
                    else:
                        if len(d1) >= l1_ways:
                            del d1[next(iter(d1))]
                        d1[lid] = msk
                out = outstanding[w]
                out.append(done)
                head = out_heads[w]
                if len(out) - head >= warp_mlp[w]:
                    next_ready = out[head]
                    out_heads[w] = head + 1
                else:
                    next_ready = issue + interval
            elif code == 2 or code == 5:  # _STORE / _STORE_RMW
                sm_free[sm] = issue + interval
                lid, msk, flat1, s2 = probe_rows[i]
                if record:
                    r_fill = 0
                    r_serv = r_mserv = r_wbserv = 0.0
                    r_ch = r_mmiss = r_mch = 0
                    r_bnum = r_wbch = r_wbbnum = 0
                if code == 5:
                    # Partial store into a compressed entry: every
                    # fourth pays the read-modify-write fetch
                    # unless the line is fully resident.  This is
                    # the load-miss fill at arrival ``issue``; the
                    # completion time is discarded because stores
                    # do not stall the warp.
                    rmw_counter += 1
                    if not rmw_counter % 4:
                        d2 = l2_masks[s2]
                        e2 = d2.get(lid)
                        if e2 is not None and e2 & full_mask == full_mask:
                            l2_hits += 1
                            del d2[lid]
                            d2[lid] = e2
                        else:
                            l2_misses += 1
                            demand_fills += 1
                            if record:
                                r_fill = 1
                            if use_meta:
                                (
                                    dev, sh, sm_, ch, rw, bk, fm,
                                    bud, bnum,
                                ) = fill_rows[i]
                            else:
                                dev, sh, sm_, ch, rw, bk, fm = (
                                    fill_rows[i]
                                )
                            if dev:
                                if open_rows[bk] == rw:
                                    serv = sh
                                else:
                                    serv = sm_
                                    open_rows[bk] = rw
                                free = next_free[ch]
                                start = free if free > issue else issue
                                next_free[ch] = start + serv
                                dram_bytes += dev
                                if record:
                                    r_serv = serv
                                    r_ch = ch
                            if use_meta:
                                meta_ready = issue
                                mt, ms, mc, mr, mb = meta_rows[i]
                                ways = meta_flat[ms]
                                if mt in ways:
                                    ways.remove(mt)
                                    ways.append(mt)
                                    meta_hits += 1
                                else:
                                    meta_misses += 1
                                    ways.append(mt)
                                    if len(ways) > meta_ways:
                                        ways.pop(0)
                                    if open_rows[mb] == mr:
                                        serv = meta_serv_hit
                                    else:
                                        serv = meta_serv_miss
                                        open_rows[mb] = mr
                                    free = next_free[mc]
                                    start = (
                                        free if free > issue else issue
                                    )
                                    end = start + serv
                                    next_free[mc] = end
                                    dram_bytes += meta_line_bytes
                                    meta_ready = end + dram_lat
                                    if record:
                                        r_mmiss = 1
                                        r_mserv = serv
                                        r_mch = mc
                                if bud:
                                    start = (
                                        link_read_free
                                        if link_read_free > meta_ready
                                        else meta_ready
                                    )
                                    link_read_free = (
                                        start + bnum / link_bpc
                                    )
                                    link_read_bytes += bud
                                    buddy_fills += 1
                                    if record:
                                        r_bnum = bnum
                            # Install the whole line.
                            if e2 is not None:
                                del d2[lid]
                                d2[lid] = e2 | fm
                            else:
                                if len(d2) >= l2_ways:
                                    victim = next(iter(d2))
                                    del d2[victim]
                                    dirty_mask = l2_dirty[s2].pop(
                                        victim, 0
                                    )
                                    if dirty_mask:
                                        # Writeback (RMW is only
                                        # taken in the compressed
                                        # modes).
                                        ventry = victim % entries
                                        num = wb_dev[ventry]
                                        serv = wb_serv[ventry]
                                        if num:
                                            vch = victim % channels
                                            vrow = victim * line_bytes // row_bytes
                                            vbk = (
                                                vch * banks
                                                + vrow % banks
                                            )
                                            if open_rows[vbk] == vrow:
                                                serv = serv + row_hit_ov
                                            else:
                                                serv = (
                                                    serv + row_miss_ov
                                                )
                                                open_rows[vbk] = vrow
                                            vfree = next_free[vch]
                                            vstart = (
                                                vfree
                                                if vfree > issue
                                                else issue
                                            )
                                            next_free[vch] = (
                                                vstart + serv
                                            )
                                            dram_bytes += num
                                            if record:
                                                r_wbserv = serv
                                                r_wbch = vch
                                        if use_meta:
                                            vbud = wb_bud[ventry]
                                            if vbud:
                                                vstart = (
                                                    link_write_free
                                                    if link_write_free
                                                    > issue
                                                    else issue
                                                )
                                                link_write_free = (
                                                    vstart
                                                    + wb_bnum[ventry]
                                                    / link_bpc
                                                )
                                                link_write_bytes += (
                                                    vbud
                                                )
                                                if record:
                                                    r_wbbnum = wb_bnum[
                                                        ventry
                                                    ]
                                d2[lid] = fm
                d2 = l2_masks[s2]
                e2 = d2.get(lid)
                if e2 is not None:
                    del d2[lid]
                    d2[lid] = e2 | msk
                    dirty = l2_dirty[s2]
                    dirty[lid] = dirty.get(lid, 0) | msk
                else:
                    if len(d2) >= l2_ways:
                        victim = next(iter(d2))
                        del d2[victim]
                        dirty_mask = l2_dirty[s2].pop(victim, 0)
                        if dirty_mask:
                            # Writeback (dirty eviction).
                            if ideal:
                                num = wb_ideal_bytes[dirty_mask]
                                serv = wb_ideal_serv[dirty_mask]
                            else:
                                ventry = victim % entries
                                num = wb_dev[ventry]
                                serv = wb_serv[ventry]
                            if num:
                                vch = victim % channels
                                vrow = victim * line_bytes // row_bytes
                                vbk = vch * banks + vrow % banks
                                if open_rows[vbk] == vrow:
                                    serv = serv + row_hit_ov
                                else:
                                    serv = serv + row_miss_ov
                                    open_rows[vbk] = vrow
                                vfree = next_free[vch]
                                vstart = (
                                    vfree if vfree > issue else issue
                                )
                                next_free[vch] = vstart + serv
                                dram_bytes += num
                                if record:
                                    r_wbserv = serv
                                    r_wbch = vch
                            if use_meta:
                                vbud = wb_bud[victim % entries]
                                if vbud:
                                    vstart = (
                                        link_write_free
                                        if link_write_free > issue
                                        else issue
                                    )
                                    link_write_free = (
                                        vstart
                                        + wb_bnum[victim % entries]
                                        / link_bpc
                                    )
                                    link_write_bytes += vbud
                                    if record:
                                        r_wbbnum = wb_bnum[
                                            victim % entries
                                        ]
                    d2[lid] = msk
                    l2_dirty[s2][lid] = msk
                next_ready = issue + interval
                if record:
                    if r_fill:
                        rec(
                            tcols, 6, w, sm, r_serv, r_mserv, r_wbserv,
                            r_ch, r_mmiss, r_mch, r_bnum, r_wbch,
                            r_wbbnum,
                        )
                    elif r_wbserv or r_wbbnum:
                        rec(
                            tcols, 5, w, sm, 0.0, 0.0, r_wbserv,
                            0, 0, 0, 0, r_wbch, r_wbbnum,
                        )
                    else:
                        rec(tcols, 4, w, sm)
            elif code == 3:  # _HOST_LOAD
                sm_free[sm] = issue + interval
                hbytes, hnum = host_rows[i]
                start = (
                    link_read_free if link_read_free > issue else issue
                )
                end = start + hnum / link_bpc
                link_read_free = end
                link_read_bytes += hbytes
                done = end + link_lat
                if record:
                    rec(tcols, 3, w, sm, 0.0, 0.0, 0.0, hnum)
                out = outstanding[w]
                out.append(done)
                head = out_heads[w]
                if len(out) - head >= warp_mlp[w]:
                    next_ready = out[head]
                    out_heads[w] = head + 1
                else:
                    next_ready = issue + interval
            else:  # _HOST_STORE: fire-and-forget remote write
                sm_free[sm] = issue + interval
                hbytes, hnum = host_rows[i]
                start = (
                    link_write_free if link_write_free > issue else issue
                )
                link_write_free = start + hnum / link_bpc
                link_write_bytes += hbytes
                next_ready = issue + interval
                if record:
                    rec(tcols, 7, w, sm, 0.0, 0.0, 0.0, hnum)

            sequence += 1
            continuation = (next_ready, sequence, w)
            if heap:
                # A continuation that precedes the whole heap is
                # the next event by construction — skip the sift.
                if continuation < heap[0]:
                    event = continuation
                else:
                    event = pushpop(heap, continuation)
            else:
                event = continuation
    finally:
        if gc_was_enabled:
            gc.enable()

    # -- drain + counters ---------------------------------------------
    cycles = max(
        finish,
        max(next_free),
        link_read_free,
        link_write_free,
        max(sm_free),
    )
    counters = (
        cycles, l1_hits, l1_misses, l2_hits, l2_misses, dram_bytes,
        link_read_bytes, link_write_bytes, meta_hits, meta_misses,
        buddy_fills, demand_fills,
    )
    if not record:
        return counters, None
    tape_cols = (
        np.frombuffer(tcols[0], dtype=np.int8),
        np.frombuffer(tcols[1], dtype=np.intc),
        np.frombuffer(tcols[2], dtype=np.intc),
        np.frombuffer(tcols[3], dtype=np.float64),
        np.frombuffer(tcols[4], dtype=np.float64),
        np.frombuffer(tcols[5], dtype=np.float64),
        np.frombuffer(tcols[6], dtype=np.intc),
        np.frombuffer(tcols[7], dtype=np.intc),
        np.frombuffer(tcols[8], dtype=np.intc),
        np.frombuffer(tcols[9], dtype=np.intc),
        np.frombuffer(tcols[10], dtype=np.intc),
        np.frombuffer(tcols[11], dtype=np.intc),
    )
    return counters, tape_cols


def _replay_py(columns, warp_mlp, iscalars, fscalars) -> float:
    """Pure-Python tape replay at one link, over the tape columns as
    lists (``column.tolist()``, converted once per tape by the caller).

    The tape is consumed strictly in order, so the columns are zipped
    into a transient row iterator — one tuple unpack per event, the
    same per-event cost as the historical list-of-tuples tape, with no
    retained tuple storage.
    """
    warp_count = int(iscalars[RI_WARP_COUNT])
    sm_count = int(iscalars[RI_SM_COUNT])
    channels = int(iscalars[RI_CHANNELS])
    interval = fscalars[RF_INTERVAL]
    dram_lat = fscalars[RF_DRAM_LAT]
    arrival_lat = fscalars[RF_ARRIVAL_LAT]
    link_bpc = fscalars[RF_LINK_BPC]
    link_lat = fscalars[RF_LINK_LAT]
    fill_tail = fscalars[RF_FILL_TAIL]

    next_free = [0.0] * channels
    sm_free = [0.0] * sm_count
    link_read_free = 0.0
    link_write_free = 0.0
    ready = [0.0] * warp_count
    outstanding: list[list] = [[] for _ in range(warp_count)]
    out_heads = [0] * warp_count
    finish = 0.0

    rows = zip(*columns)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for kind, w, sm, f0, f1, f2, i0, i1, i2, i3, i4, i5 in rows:
            if kind == 0:  # compute
                r = ready[w]
                free = sm_free[sm]
                issue = r if r > free else free
                t = issue + f0
                sm_free[sm] = t
                ready[w] = t
            elif kind == 1:  # load, cache hit
                r = ready[w]
                free = sm_free[sm]
                issue = r if r > free else free
                sm_free[sm] = issue + interval
                done = issue + f0
                out = outstanding[w]
                out.append(done)
                head = out_heads[w]
                if len(out) - head >= warp_mlp[w]:
                    ready[w] = out[head]
                    out_heads[w] = head + 1
                else:
                    ready[w] = issue + interval
            elif kind == 2:  # load, demand fill
                r = ready[w]
                free = sm_free[sm]
                issue = r if r > free else free
                sm_free[sm] = issue + interval
                arrival = issue + arrival_lat
                if f0:  # serv
                    free = next_free[i0]
                    start = free if free > arrival else arrival
                    end = start + f0
                    next_free[i0] = end
                    done = end + dram_lat
                else:
                    done = arrival
                meta_ready = arrival
                if i1:  # mmiss
                    free = next_free[i2]
                    start = free if free > arrival else arrival
                    end = start + f1
                    next_free[i2] = end
                    meta_ready = end + dram_lat
                    if meta_ready > done:
                        done = meta_ready
                if i3:  # bnum
                    start = (
                        link_read_free
                        if link_read_free > meta_ready
                        else meta_ready
                    )
                    end = start + i3 / link_bpc
                    link_read_free = end
                    t = end + link_lat
                    if t > done:
                        done = t
                if f2:  # wbserv
                    free = next_free[i4]
                    start = free if free > arrival else arrival
                    next_free[i4] = start + f2
                if i5:  # wbbnum
                    start = (
                        link_write_free
                        if link_write_free > arrival
                        else arrival
                    )
                    link_write_free = start + i5 / link_bpc
                done = done + fill_tail
                out = outstanding[w]
                out.append(done)
                head = out_heads[w]
                if len(out) - head >= warp_mlp[w]:
                    ready[w] = out[head]
                    out_heads[w] = head + 1
                else:
                    ready[w] = issue + interval
            elif kind == 4:  # store, no memory-system timing
                r = ready[w]
                free = sm_free[sm]
                issue = r if r > free else free
                sm_free[sm] = issue + interval
                ready[w] = issue + interval
            elif kind == 5:  # store with dirty-eviction writeback
                r = ready[w]
                free = sm_free[sm]
                issue = r if r > free else free
                sm_free[sm] = issue + interval
                if f2:
                    free = next_free[i4]
                    start = free if free > issue else issue
                    next_free[i4] = start + f2
                if i5:
                    start = (
                        link_write_free
                        if link_write_free > issue
                        else issue
                    )
                    link_write_free = start + i5 / link_bpc
                ready[w] = issue + interval
            elif kind == 6:  # store with read-modify-write fill
                r = ready[w]
                free = sm_free[sm]
                issue = r if r > free else free
                sm_free[sm] = issue + interval
                if f0:
                    free = next_free[i0]
                    start = free if free > issue else issue
                    next_free[i0] = start + f0
                meta_ready = issue
                if i1:
                    free = next_free[i2]
                    start = free if free > issue else issue
                    end = start + f1
                    next_free[i2] = end
                    meta_ready = end + dram_lat
                if i3:
                    start = (
                        link_read_free
                        if link_read_free > meta_ready
                        else meta_ready
                    )
                    link_read_free = start + i3 / link_bpc
                if f2:
                    free = next_free[i4]
                    start = free if free > issue else issue
                    next_free[i4] = start + f2
                if i5:
                    start = (
                        link_write_free
                        if link_write_free > issue
                        else issue
                    )
                    link_write_free = start + i5 / link_bpc
                ready[w] = issue + interval
            elif kind == 3:  # host load over the link
                r = ready[w]
                free = sm_free[sm]
                issue = r if r > free else free
                sm_free[sm] = issue + interval
                start = (
                    link_read_free if link_read_free > issue else issue
                )
                end = start + i0 / link_bpc
                link_read_free = end
                done = end + link_lat
                out = outstanding[w]
                out.append(done)
                head = out_heads[w]
                if len(out) - head >= warp_mlp[w]:
                    ready[w] = out[head]
                    out_heads[w] = head + 1
                else:
                    ready[w] = issue + interval
            elif kind == 7:  # host store over the link
                r = ready[w]
                free = sm_free[sm]
                issue = r if r > free else free
                sm_free[sm] = issue + interval
                start = (
                    link_write_free if link_write_free > issue else issue
                )
                link_write_free = start + i0 / link_bpc
                ready[w] = issue + interval
            else:  # warp end
                out = outstanding[w]
                head = out_heads[w]
                if len(out) > head:
                    last = max(out[head:])
                    if last > finish:
                        finish = last
                r = ready[w]
                if r > finish:
                    finish = r
    finally:
        if gc_was_enabled:
            gc.enable()

    return max(
        finish,
        max(next_free),
        link_read_free,
        link_write_free,
        max(sm_free),
    )

