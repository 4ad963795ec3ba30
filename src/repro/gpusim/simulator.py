"""The dependency-driven performance simulator's front door.

Warps advance through their instruction streams subject to three
resource classes — SM issue slots, DRAM channel bandwidth, and
interconnect bandwidth — plus fixed latencies.  A warp issues until it
exceeds its memory-level parallelism, then blocks on its oldest
outstanding load, which is the dependency-driven approximation the
paper's (and NVIDIA's NUMA-GPU line of) simulators use.

The memory pipeline implements the three Fig.-11 modes:

* ``IDEAL`` fills only the requested 32 B sectors;
* ``BANDWIDTH`` fills whole lines at the compressed transfer size and
  pays decompression latency — faster for streaming, slower for
  single-sector random access (over-fetch);
* ``BUDDY`` adds the metadata cache (misses consume DRAM bandwidth;
  buddy fetches cannot start until the metadata arrives) and sources
  overflow sectors over the interconnect.

:class:`DependencyDrivenSimulator` selects between the two engines
(:data:`ENGINES`), both module functions of
:mod:`repro.gpusim.vector_sim`.  :class:`_MemorySystem` is the same
pipeline as scalar per-access calls; the cycle-stepped reference
(:mod:`repro.gpusim.reference`) drives it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metadata_cache import MetadataCache
from repro.gpusim.cache import FULL_MASK, SectoredCache, sector_mask
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.config import GPUConfig
from repro.gpusim.dram import ChannelSet
from repro.gpusim.interconnect import Interconnect
from repro.gpusim.trace import KernelTrace
from repro.units import (
    ENTRIES_PER_METADATA_LINE,
    MEMORY_ENTRY_BYTES,
    METADATA_LINE_BYTES,
    SECTOR_BYTES,
)

#: Engines selectable on :class:`DependencyDrivenSimulator`.
ENGINES = ("vectorized", "relaxed")


def check_engine(engine: str, verify: float) -> None:
    """Raise ``ValueError`` unless ``(engine, verify)`` is a selection
    :class:`DependencyDrivenSimulator` can run."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if not 0.0 <= verify <= 1.0:
        raise ValueError(
            f"verify must be a fraction in [0, 1], got {verify!r}"
        )
    if verify and engine != "relaxed":
        raise ValueError(
            "verify= cross-checking is the relaxed engine's escape "
            f"hatch; engine {engine!r} is already exact"
        )


@dataclass
class SimResult:
    """Simulation outcome and pipeline statistics."""

    benchmark: str
    mode: str
    cycles: float
    instructions: int
    l1_hit_rate: float
    l2_hit_rate: float
    dram_bytes: int
    link_bytes: int
    metadata_hit_rate: float
    buddy_fills: int
    demand_fills: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class _MemorySystem:
    """L1s, L2, DRAM channels, interconnect and the metadata path."""

    def __init__(self, config: GPUConfig, state: CompressionState) -> None:
        self.config = config
        self.state = state
        self.l1s = [
            SectoredCache(config.l1_bytes, config.l1_ways, config.line_bytes)
            for _ in range(config.sm_count)
        ]
        self.l2 = SectoredCache(config.l2_bytes, config.l2_ways, config.line_bytes)
        self.dram = ChannelSet(
            config.dram_channels,
            config.dram_bytes_per_cycle_per_channel,
            config.dram_latency,
            config.line_bytes,
        )
        self.link = Interconnect(config)
        self.metadata = MetadataCache(
            config.metadata_cache_bytes,
            config.metadata_cache_ways,
            config.metadata_cache_slices,
        )
        self.host_base = None  # set by simulator for native host regions
        self.buddy_fills = 0
        self.demand_fills = 0
        self._rmw_counter = 0

    # ------------------------------------------------------------------
    def load(self, sm: int, address: int, sectors: int, now: float) -> float:
        """Issue a load; returns data-ready time."""
        config = self.config
        line = address - address % MEMORY_ENTRY_BYTES
        mask = sector_mask((address % MEMORY_ENTRY_BYTES) // SECTOR_BYTES, sectors)

        if self.host_base is not None and address >= self.host_base:
            # Native host-memory access (FF_HPGMG): always remote.
            return self.link.read(sectors * SECTOR_BYTES, now)

        l1 = self.l1s[sm]
        if l1.lookup(line, mask):
            return now + config.l1_latency
        if self.l2.lookup(line, mask):
            l1.fill(line, mask)
            return now + config.l2_latency
        ready = self._fill_l2(line, mask, now + config.l2_latency)
        l1.fill(line, mask)
        return ready + config.l2_latency

    def store(self, sm: int, address: int, sectors: int, now: float) -> None:
        """Issue a store through the write buffer (no warp stall)."""
        line = address - address % MEMORY_ENTRY_BYTES
        mask = sector_mask((address % MEMORY_ENTRY_BYTES) // SECTOR_BYTES, sectors)
        if self.host_base is not None and address >= self.host_base:
            self.link.write(sectors * SECTOR_BYTES, now)
            return
        if self.state.mode is not CompressionMode.IDEAL and sectors < 4:
            # Writing into a compressed entry is a read-modify-write:
            # the rest of the line must be fetched to recompress (the
            # paper's motivation for cache-block granularity).  The
            # warp does not stall, but the bandwidth is consumed.
            # Write-combining in the L2 absorbs most partial stores;
            # every fourth one pays the RMW fetch.
            self._rmw_counter += 1
            if self._rmw_counter % 4 == 0 and not self.l2.lookup(line, FULL_MASK):
                self._fill_l2(line, FULL_MASK, now)
        evicted = self.l2.fill(line, mask, dirty=True)
        if evicted is not None:
            self._writeback(evicted[0], now, evicted[1])

    # ------------------------------------------------------------------
    def _fill_l2(self, line: int, mask: int, now: float) -> float:
        """Demand fill into L2; returns completion time."""
        state = self.state
        self.demand_fills += 1
        if state.mode is CompressionMode.IDEAL:
            # Sectored fill: only the requested sectors move.
            requested = bin(mask).count("1")
            done = self.dram.request(line, requested * SECTOR_BYTES, now)
            evicted = self.l2.fill(line, mask)
            if evicted is not None:
                self._writeback(evicted[0], now, evicted[1])
            return done

        entry = state.entry_of(line)
        device_bytes = state.device_transfer_bytes(entry)
        # 16x entries outside the zero class live entirely in
        # buddy-memory: no device access exists to pay row overhead,
        # latency or channel occupancy for.
        device_done = (
            self.dram.request(line, device_bytes, now) if device_bytes else now
        )
        done = device_done

        if state.mode is CompressionMode.BUDDY:
            entry_index = line // MEMORY_ENTRY_BYTES
            meta_ready = now
            if not self.metadata.access_entry(entry_index):
                # Metadata fetched in parallel with the device data,
                # from the dedicated region (one line per 64 entries).
                meta_addr = (
                    entry_index // ENTRIES_PER_METADATA_LINE
                ) * METADATA_LINE_BYTES
                meta_ready = self.dram.request(
                    meta_addr, METADATA_LINE_BYTES, now
                )
                done = max(done, meta_ready)
            buddy_bytes = state.buddy_transfer_bytes(entry)
            if buddy_bytes:
                # The buddy fetch needs the metadata outcome first
                # (the paper does not speculate into the link).
                buddy_done = self.link.read(buddy_bytes, meta_ready)
                done = max(done, buddy_done)
                self.buddy_fills += 1

        # Compressed fills install the whole line (over-fetch effect).
        evicted = self.l2.fill(line, FULL_MASK)
        if evicted is not None:
            self._writeback(evicted[0], now, evicted[1])
        return done + self.config.decompression_latency

    def _writeback(self, line: int, now: float, dirty_mask: int) -> None:
        """Dirty eviction: post the written data back to storage.

        The uncompressed (IDEAL) baseline is sectored in both
        directions: only the sectors actually written move.  The
        compressed modes recompress at entry granularity, so they
        post the whole compressed entry regardless of the mask.
        """
        state = self.state
        if state.mode is CompressionMode.IDEAL:
            dirty_sectors = bin(dirty_mask).count("1")
            self.dram.post(line, dirty_sectors * SECTOR_BYTES, now)
            return
        entry = state.entry_of(line)
        device_bytes = state.device_transfer_bytes(entry)
        if device_bytes:
            self.dram.post(line, device_bytes, now)
        if state.mode is CompressionMode.BUDDY:
            buddy_bytes = state.buddy_transfer_bytes(entry)
            if buddy_bytes:
                self.link.write(buddy_bytes, now)


class DependencyDrivenSimulator:
    """The fast simulator (Fig. 10's subject; Fig. 11's instrument).

    Two engines implement the same machine (the contract is
    documented in ``docs/engines.md``); :func:`check_engine` validates
    the selection:

    * ``"vectorized"`` (default) —
      :func:`repro.gpusim.vector_sim.run_vectorized`: per-access
      quantities resolve as whole-trace array operations, events
      advance in exact ``(ready, sequence)`` order over prepared
      columns.  Identical counters and bit-identical cycles to the
      oracle, everywhere.
    * ``"relaxed"`` — the frozen-order tape engine, a one-link
      :func:`repro.gpusim.vector_sim.replay_links` call: traffic is
      resolved once, in the exact event order of the reference
      interconnect, and every other link bandwidth replays the frozen
      tape.  Exact at the reference interconnect; counters and cycles
      within the pinned tolerances elsewhere.  ``verify`` selects the
      fraction of runs cross-checked against the vectorized engine
      (``verify=1.0`` checks every run; the sample is deterministic
      per design point).

    Both engines are pinned against a per-access oracle kept with the
    tests (``tests/sim_oracle.py``) by ``tests/test_vector_sim.py``
    and ``tests/test_relaxed_sim.py``.
    """

    def __init__(
        self,
        config: GPUConfig,
        engine: str = "vectorized",
        verify: float = 0.0,
    ) -> None:
        check_engine(engine, verify)
        self.config = config
        self.engine = engine
        self.verify = verify

    def run(self, trace: KernelTrace, state: CompressionState) -> SimResult:
        """Simulate a kernel trace under a compression state."""
        from repro.gpusim.vector_sim import replay_links, run_vectorized

        config = self.config
        if self.engine == "relaxed":
            return replay_links(
                trace, state, config, [config.link.bandwidth_gbps], self.verify
            )[0]
        return run_vectorized(trace, state, config)


def _aggregate_hit_rate(caches) -> float:
    hits = sum(c.hits for c in caches)
    total = hits + sum(c.misses for c in caches)
    return hits / total if total else 0.0
