"""Cycle-stepped reference machine — the Fig. 10 silicon proxy.

The paper validates its fast dependency-driven simulator against real
V100 silicon and against GPGPUSim, showing ~0.99 correlation and a two
orders-of-magnitude speed gap.  Without silicon, we reproduce the
methodology with this deliberately detailed machine: it steps every
core cycle, walks each SM's warps in greedy-then-oldest order, and
models the same memory system.  The correlation study then measures
how faithfully (and how much faster) the fast simulator tracks it.

The machine consumes the :class:`ColumnarTrace` representation
directly: instruction streams are flat op/operand columns indexed per
warp through the CSR offsets.  Only the issue logic reads the
columns — the memory system is the scalar per-access
:class:`~repro.gpusim.simulator._MemorySystem`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.compression import CompressionState
from repro.gpusim.config import GPUConfig
from repro.gpusim.simulator import SimResult, _MemorySystem, _aggregate_hit_rate
from repro.gpusim.trace import KernelTrace, Op


@dataclass
class _WarpState:
    """Per-warp microarchitectural state.

    ``pc`` indexes the trace's flat instruction columns and runs over
    ``[start, end)`` — the warp's CSR row range — rather than over a
    per-warp list.
    """

    pc: int
    end: int
    max_outstanding: int
    busy_until: float = 0.0
    compute_left: int = 0
    last_issue: float = -1.0
    outstanding: tuple = ()

    @property
    def done(self) -> bool:
        return self.pc >= self.end and self.compute_left == 0


class CycleSteppedReference:
    """The slow, cycle-accurate-style reference simulator."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config

    def run(self, trace: KernelTrace, state: CompressionState) -> SimResult:
        config = self.config
        memory = _MemorySystem(config, state)
        if trace.host_traffic_fraction > 0:
            memory.host_base = trace.footprint_bytes

        # Flat instruction columns (plain lists: the per-cycle loop
        # below indexes them scalar-wise, where ndarray item access
        # would dominate).
        col = trace.columnar()
        ops = col.ops.tolist()
        operand_a = col.a.tolist()
        operand_b = col.b.tolist()
        starts = col.warp_starts.tolist()
        warp_sm = col.warp_sm.tolist()
        warp_mlp = col.warp_mlp.tolist()

        # Group warps per SM, preserving age order (GTO = greedy then
        # oldest: keep issuing the same warp until it stalls, then
        # fall back to the oldest ready one).
        sms: list[list[_WarpState]] = [[] for _ in range(config.sm_count)]
        for index in range(col.warp_count):
            sms[warp_sm[index]].append(
                _WarpState(starts[index], starts[index + 1], warp_mlp[index])
            )
        greedy: list[int | None] = [None] * config.sm_count

        cycle = 0.0
        live = sum(len(s) for s in sms)
        issue_slots = config.schedulers_per_sm
        compute_code = int(Op.COMPUTE)
        load_code = int(Op.LOAD)
        while live > 0:
            for sm_index, warps in enumerate(sms):
                for _ in range(issue_slots):
                    warp = self._pick(warps, greedy, sm_index, cycle)
                    if warp is None:
                        break
                    if self._issue(
                        warp, sm_index, memory, cycle,
                        ops, operand_a, operand_b,
                        compute_code, load_code,
                    ):
                        greedy[sm_index] = warps.index(warp)
                    if warp.done:
                        live -= 1
                        greedy[sm_index] = None
            cycle += 1.0
            if cycle > 50_000_000:  # pragma: no cover - runaway guard
                raise RuntimeError("reference simulation did not converge")

        # Same completion semantics as the fast simulator: DRAM posts
        # and the interconnect's fire-and-forget write direction must
        # drain, or the two machines diverge on write-tailed kernels.
        cycles = max(cycle, memory.dram.busy_until, memory.link.busy_until)
        meta = memory.metadata.stats
        return SimResult(
            benchmark=trace.benchmark,
            mode=state.mode.value,
            cycles=cycles,
            instructions=trace.instruction_count,
            l1_hit_rate=_aggregate_hit_rate(memory.l1s),
            l2_hit_rate=memory.l2.hit_rate,
            dram_bytes=memory.dram.bytes_moved,
            link_bytes=memory.link.total_bytes,
            metadata_hit_rate=meta.hit_rate,
            buddy_fills=memory.buddy_fills,
            demand_fills=memory.demand_fills,
        )

    # ------------------------------------------------------------------
    def _pick(self, warps, greedy, sm_index, cycle):
        """Greedy-then-oldest warp selection."""
        favourite = greedy[sm_index]
        if favourite is not None and favourite < len(warps):
            warp = warps[favourite]
            if not warp.done and warp.busy_until <= cycle:
                return warp
        for warp in warps:  # list order == age order
            if not warp.done and warp.busy_until <= cycle:
                return warp
        return None

    def _issue(
        self, warp: _WarpState, sm: int, memory, cycle: float,
        ops, operand_a, operand_b, compute_code, load_code,
    ) -> bool:
        """Issue one instruction from the warp; returns success."""
        if warp.compute_left > 0:
            warp.compute_left -= 1
            if warp.compute_left == 0:
                warp.pc += 1
            return True
        pc = warp.pc
        op = ops[pc]
        if op == compute_code:
            warp.compute_left = operand_a[pc] - 1
            if warp.compute_left == 0:
                warp.pc += 1
            return True
        if op == load_code:
            done = memory.load(sm, operand_a[pc], operand_b[pc], cycle)
            warp.outstanding = warp.outstanding + (done,)
            if len(warp.outstanding) >= warp.max_outstanding:
                warp.busy_until = warp.outstanding[0]
                warp.outstanding = warp.outstanding[1:]
            warp.pc += 1
            return True
        memory.store(sm, operand_a[pc], operand_b[pc], cycle)
        warp.pc += 1
        return True
