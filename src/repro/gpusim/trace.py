"""Warp-instruction trace intermediate representation.

The paper drives its simulator with SASS traces of 1–9 billion warp
instructions; we use the same shape at reduced length.  A trace is a
set of per-warp instruction streams over three operations:

* ``COMPUTE n`` — n back-to-back arithmetic instructions;
* ``LOAD addr sectors`` — a coalesced global load touching
  ``sectors`` 32 B sectors of the 128 B line at ``addr``;
* ``STORE addr sectors`` — a global store (fire-and-forget through
  the write buffer).

A trace stores the streams as :class:`ColumnarTrace` — structured
NumPy arrays (op codes, operands, CSR warp offsets, per-warp SM ids
and MLP limits).  This is what the trace generator emits and what
every engine consumes; per-access quantities are derived from it with
whole-array operations instead of per-instruction Python work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Op(enum.IntEnum):
    COMPUTE = 0
    LOAD = 1
    STORE = 2


@dataclass
class ColumnarTrace:
    """All warps' instruction streams as structured NumPy arrays.

    Attributes:
        ops: ``(n,)`` int8 op codes (:class:`Op` values) over every
            instruction row of every warp, concatenated in warp order.
        a: ``(n,)`` int64 first operands (compute run length or byte
            address).
        b: ``(n,)`` int64 second operands (0 or sector count).
        warp_starts: ``(w + 1,)`` int64 CSR offsets: warp ``i`` owns
            rows ``warp_starts[i]:warp_starts[i + 1]``.
        warp_sm: ``(w,)`` int32 home SM per warp.
        warp_mlp: ``(w,)`` int32 ``max_outstanding`` per warp.
    """

    ops: np.ndarray
    a: np.ndarray
    b: np.ndarray
    warp_starts: np.ndarray
    warp_sm: np.ndarray
    warp_mlp: np.ndarray

    @property
    def warp_count(self) -> int:
        return int(self.warp_sm.size)

    @property
    def instruction_count(self) -> int:
        compute = self.ops == int(Op.COMPUTE)
        return int(self.a[compute].sum() + np.count_nonzero(~compute))

    @property
    def memory_instruction_count(self) -> int:
        return int(np.count_nonzero(self.ops != int(Op.COMPUTE)))


class KernelTrace:
    """A traced kernel: its :class:`ColumnarTrace` plus address-space
    metadata."""

    def __init__(
        self,
        benchmark: str,
        columnar: ColumnarTrace,
        footprint_bytes: int = 0,
        allocation_ranges: dict[str, tuple[int, int]] | None = None,
        host_traffic_fraction: float = 0.0,
    ) -> None:
        self.benchmark = benchmark
        self.footprint_bytes = footprint_bytes
        #: Address ranges per allocation: name -> (start, end) offsets.
        self.allocation_ranges = dict(allocation_ranges or {})
        #: Fraction of accesses that natively target host memory
        #: (FF_HPGMG's synchronous copies) — served over the link even
        #: without compression.
        self.host_traffic_fraction = host_traffic_fraction
        self._columnar = columnar

    def columnar(self) -> ColumnarTrace:
        """The structured-array instruction streams."""
        return self._columnar

    # -- summary properties -------------------------------------------
    @property
    def warp_count(self) -> int:
        return self._columnar.warp_count

    @property
    def instruction_count(self) -> int:
        return self._columnar.instruction_count

    @property
    def memory_instruction_count(self) -> int:
        return self._columnar.memory_instruction_count

    def allocation_of(self, address: int) -> str:
        """Name of the allocation owning a byte address."""
        for name, (start, end) in self.allocation_ranges.items():
            if start <= address < end:
                return name
        raise KeyError(f"address {address:#x} outside all allocations")
