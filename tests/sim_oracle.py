"""The per-access oracle the simulator engines are checked against.

One heap event per instruction, one scalar :class:`_MemorySystem` call
per access: the slow, obviously-sequential form of the machine that
``repro.gpusim`` simulates.  The vectorized engine must match it bit
for bit (``test_vector_sim.py``), the relaxed engine within its pinned
tolerances (``test_relaxed_sim.py``), and the speed floors measure
both against it (``test_speed_floors.py``).

It imports neither ``repro.gpusim.vector_sim`` nor
``repro.gpusim._event_core`` — the code it checks — so a defect there
cannot leak into the oracle (``test_oracle_is_independent`` in
``test_vector_sim.py`` pins this).

Also here, for tests that work with per-warp ``(op, a, b)`` rows:
:func:`kernel_trace` builds a columnar :class:`KernelTrace` from
hand-written rows, and :func:`decode` turns a trace's columns back
into rows.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass

import numpy as np

from repro.gpusim.simulator import SimResult, _aggregate_hit_rate, _MemorySystem
from repro.gpusim.trace import ColumnarTrace, KernelTrace, Op


@dataclass
class Warp:
    """One warp's instruction stream as ``(op, a, b)`` rows:
    ``(COMPUTE, n, 0)``, ``(LOAD, address, sectors)`` or
    ``(STORE, address, sectors)``."""

    sm: int
    instructions: list[tuple[int, int, int]]
    max_outstanding: int = 4


def kernel_trace(
    benchmark: str,
    warps: list[Warp],
    footprint_bytes: int = 0,
    allocation_ranges: dict[str, tuple[int, int]] | None = None,
    host_traffic_fraction: float = 0.0,
) -> KernelTrace:
    """A columnar :class:`KernelTrace` built from per-warp rows."""
    rows = [
        np.array(w.instructions, dtype=np.int64).reshape(-1, 3) for w in warps
    ]
    stacked = np.concatenate(rows) if rows else np.empty((0, 3), np.int64)
    starts = np.zeros(len(warps) + 1, dtype=np.int64)
    np.cumsum([r.shape[0] for r in rows], out=starts[1:])
    columnar = ColumnarTrace(
        ops=stacked[:, 0].astype(np.int8),
        a=stacked[:, 1].copy(),
        b=stacked[:, 2].copy(),
        warp_starts=starts,
        warp_sm=np.array([w.sm for w in warps], dtype=np.int32),
        warp_mlp=np.array([w.max_outstanding for w in warps], dtype=np.int32),
    )
    return KernelTrace(
        benchmark,
        columnar,
        footprint_bytes,
        allocation_ranges,
        host_traffic_fraction,
    )


#: Decoded rows per trace, so repeated oracle runs over one trace pay
#: the decode once (as the speed floors' baseline always has).
_DECODED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def decode(trace: KernelTrace) -> list[Warp]:
    """The per-warp ``(op, a, b)`` rows of a trace's columns."""
    warps = _DECODED.get(trace)
    if warps is None:
        col = trace.columnar()
        ops, a, b = col.ops.tolist(), col.a.tolist(), col.b.tolist()
        starts = col.warp_starts.tolist()
        warps = [
            Warp(sm, list(zip(ops[lo:hi], a[lo:hi], b[lo:hi])), mlp)
            for sm, mlp, lo, hi in zip(
                col.warp_sm.tolist(), col.warp_mlp.tolist(), starts, starts[1:]
            )
        ]
        _DECODED[trace] = warps
    return warps


def run_oracle(config, trace: KernelTrace, state) -> SimResult:
    """Simulate ``trace`` under ``state`` one access at a time."""
    memory = _MemorySystem(config, state)
    if trace.host_traffic_fraction > 0:
        memory.host_base = trace.footprint_bytes

    issue_interval = config.issue_interval
    sm_free = [0.0] * config.sm_count
    warps = decode(trace)
    # (ready_time, sequence, warp_index, pc, outstanding_loads)
    heap: list = []
    for index in range(len(warps)):
        heapq.heappush(heap, (0.0, index, index, 0, ()))

    finish = 0.0
    sequence = len(warps)
    while heap:
        ready, _, index, pc, outstanding = heapq.heappop(heap)
        warp = warps[index]
        if pc >= len(warp.instructions):
            finish = max(finish, ready, *outstanding)
            continue
        op, a, b = warp.instructions[pc]
        sm = warp.sm
        issue = max(ready, sm_free[sm])

        if op == Op.COMPUTE:
            # a back-to-back arithmetic instructions: they occupy the
            # SM's issue slots; ALU latency pipelines away.
            busy = a * issue_interval
            sm_free[sm] = issue + busy
            next_ready = issue + busy
        elif op == Op.LOAD:
            sm_free[sm] = issue + issue_interval
            done = memory.load(sm, a, b, issue)
            outstanding = outstanding + (done,)
            if len(outstanding) >= warp.max_outstanding:
                # Block on the oldest outstanding load.
                next_ready = outstanding[0]
                outstanding = outstanding[1:]
            else:
                next_ready = issue + issue_interval
        else:  # STORE
            sm_free[sm] = issue + issue_interval
            memory.store(sm, a, b, issue)
            next_ready = issue + issue_interval

        sequence += 1
        heapq.heappush(heap, (next_ready, sequence, index, pc + 1, outstanding))

    # Final time covers in-flight fire-and-forget traffic too: DRAM
    # posts *and* the interconnect's write direction must drain before
    # the kernel's memory state is complete.
    cycles = max(
        finish, memory.dram.busy_until, memory.link.busy_until, max(sm_free)
    )
    return SimResult(
        benchmark=trace.benchmark,
        mode=state.mode.value,
        cycles=cycles,
        instructions=trace.instruction_count,
        l1_hit_rate=_aggregate_hit_rate(memory.l1s),
        l2_hit_rate=memory.l2.hit_rate,
        dram_bytes=memory.dram.bytes_moved,
        link_bytes=memory.link.total_bytes,
        metadata_hit_rate=memory.metadata.stats.hit_rate,
        buddy_fills=memory.buddy_fills,
        demand_fills=memory.demand_fills,
    )
