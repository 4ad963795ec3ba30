"""HBM2 channel model.

Each channel is a bandwidth-limited queue with row-buffer locality:
a request occupies its channel for the pin-transfer time plus a
row-hit or row-miss command overhead, behind earlier requests, then
completes after the fixed DRAM latency.  The overhead split is what
gives streaming traffic near-peak throughput while random 32 B
gathers achieve a small fraction of peak — the asymmetry behind
Fig. 11's over-fetch results (354.cg, 360.ilbdc).

Addresses interleave across channels at line granularity, the same
hash the paper assumes for both data and metadata.
"""

from __future__ import annotations

import numpy as np

#: DRAM row size assumed for row-buffer locality.
ROW_BYTES = 2048

#: Banks per channel: each holds one open row.  Out-of-order arrival
#: from hundreds of warps still hits open rows across the bank set,
#: approximating an FR-FCFS controller.
BANKS_PER_CHANNEL = 16

#: Channel occupancy (cycles) added on a row-buffer hit / miss.
ROW_HIT_OVERHEAD = 0.25
ROW_MISS_OVERHEAD = 2.0


class ChannelSet:
    """A set of bandwidth-limited DRAM channels with banked open rows."""

    def __init__(
        self, channels: int, bytes_per_cycle: float, latency: int,
        line_bytes: int = 128,
    ) -> None:
        self.channels = channels
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.line_bytes = line_bytes
        self._next_free = np.zeros(channels, dtype=np.float64)
        self._open_rows = [
            np.full(BANKS_PER_CHANNEL, -1, dtype=np.int64)
            for _ in range(channels)
        ]
        self.bytes_moved = 0
        self.requests = 0
        self.row_hits = 0

    def channel_of(self, address: int) -> int:
        return (address // self.line_bytes) % self.channels

    def request(self, address: int, num_bytes: int, arrival: float) -> float:
        """Issue a transfer; returns its completion time (cycles)."""
        channel = self.channel_of(address)
        row = address // ROW_BYTES
        bank = row % BANKS_PER_CHANNEL
        open_rows = self._open_rows[channel]
        if open_rows[bank] == row:
            overhead = ROW_HIT_OVERHEAD
            self.row_hits += 1
        else:
            overhead = ROW_MISS_OVERHEAD
            open_rows[bank] = row
        service = num_bytes / self.bytes_per_cycle + overhead
        start = max(float(self._next_free[channel]), arrival)
        self._next_free[channel] = start + service
        self.bytes_moved += num_bytes
        self.requests += 1
        return start + service + self.latency

    def post(self, address: int, num_bytes: int, arrival: float) -> None:
        """Fire-and-forget transfer (stores, writebacks): consumes
        bandwidth without a completion dependency."""
        self.request(address, num_bytes, arrival)

    def decompose(
        self, addresses
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized geometry split of an address array.

        Returns ``(channels, rows, flat banks)`` where the flat bank
        index is ``channel * BANKS_PER_CHANNEL + bank`` — the
        coordinates a batched engine precomputes once per trace
        instead of re-deriving on every request.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        channels = (addresses // self.line_bytes) % self.channels
        rows = addresses // ROW_BYTES
        banks = channels * BANKS_PER_CHANNEL + rows % BANKS_PER_CHANNEL
        return channels, rows, banks

    @property
    def busy_until(self) -> float:
        return float(self._next_free.max())

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.requests if self.requests else 0.0
