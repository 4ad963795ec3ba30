"""Equivalence contract between the vectorized and legacy engines.

The vectorized batched-event core must be indistinguishable from the
per-access oracle on every observable: identical integer traffic
counters, identical hit rates and bit-identical cycle counts, across
all three compression modes, several benchmarks and link bandwidths.
These tests pin that contract, the batched component APIs it builds
on, and a golden Fig. 11 subset digest shared by both engines.
"""

import numpy as np
import pytest

from repro.core.entry import TargetRatio
from repro.engine import ExperimentRunner, result_digest
from repro.gpusim import (
    CompressionMode,
    CompressionState,
    DependencyDrivenSimulator,
    KernelTrace,
    VectorizedSimulator,
    VectorSectoredCache,
    WarpTrace,
    scaled_config,
)
from repro.gpusim.cache import SectoredCache, sector_mask
from repro.gpusim.dram import ChannelSet
from repro.gpusim.interconnect import Interconnect
from repro.gpusim.trace import ColumnarTrace, Op
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, generate_trace, layout_snapshot

SMALL_TRACE = TraceConfig(
    sm_count=4,
    warps_per_sm=8,
    memory_instructions_per_warp=24,
    snapshot_config=SnapshotConfig(
        scale=1.0 / 16384, min_footprint_bytes=256 * 1024
    ),
)
SMALL_GPU = scaled_config(sm_count=4, warps_per_sm=8)

#: Every field of SimResult takes part in the equivalence contract.
RESULT_FIELDS = (
    "benchmark",
    "mode",
    "cycles",
    "instructions",
    "l1_hit_rate",
    "l2_hit_rate",
    "dram_bytes",
    "link_bytes",
    "metadata_hit_rate",
    "buddy_fills",
    "demand_fills",
)


def assert_equivalent(trace, state, config):
    legacy = DependencyDrivenSimulator(config, engine="legacy").run(
        trace, state
    )
    vector = VectorizedSimulator(config).run(trace, state)
    for field in RESULT_FIELDS:
        assert getattr(legacy, field) == getattr(vector, field), field
    return legacy, vector


# ---------------------------------------------------------------------------
# Engine selection plumbing.
# ---------------------------------------------------------------------------
class TestEngineSwitch:
    def test_default_engine_is_vectorized(self):
        assert DependencyDrivenSimulator(SMALL_GPU).engine == "vectorized"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            DependencyDrivenSimulator(SMALL_GPU, engine="warp-speed")

    def test_engines_dispatch_to_same_result(self):
        trace = generate_trace("370.bt", SMALL_TRACE)
        state = CompressionState.ideal(trace.footprint_bytes)
        fast = DependencyDrivenSimulator(SMALL_GPU, "vectorized").run(
            trace, state
        )
        slow = DependencyDrivenSimulator(SMALL_GPU, "legacy").run(trace, state)
        assert fast.cycles == slow.cycles


# ---------------------------------------------------------------------------
# Whole-simulation equivalence across modes, benchmarks and links.
# ---------------------------------------------------------------------------
class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "name", ["VGG16", "354.cg", "356.sp", "FF_HPGMG", "FF_Lulesh"]
    )
    @pytest.mark.parametrize("mode", list(CompressionMode))
    @pytest.mark.parametrize("link", [50.0, 150.0])
    def test_modes_benchmarks_links(self, name, mode, link):
        trace = generate_trace(name, SMALL_TRACE)
        if mode is CompressionMode.IDEAL:
            state = CompressionState.ideal(trace.footprint_bytes)
        else:
            snapshot = layout_snapshot(name, SMALL_TRACE)
            selection = {
                a.name: TargetRatio.X2 for a in snapshot.allocations
            }
            state = CompressionState.from_snapshot(snapshot, selection, mode)
        assert_equivalent(trace, state, SMALL_GPU.with_link(link))

    def test_cycles_are_bit_identical_not_just_close(self):
        """The contract allows 1e-6 relative; the engines achieve ==."""
        trace = generate_trace("VGG16", SMALL_TRACE)
        snapshot = layout_snapshot("VGG16", SMALL_TRACE)
        selection = {a.name: TargetRatio.X2 for a in snapshot.allocations}
        state = CompressionState.from_snapshot(
            snapshot, selection, CompressionMode.BUDDY
        )
        legacy, vector = assert_equivalent(trace, state, SMALL_GPU)
        assert legacy.cycles == vector.cycles  # exact float equality

    def test_unit_trace_with_host_region(self):
        footprint = 1 << 20
        stores = [
            (int(Op.STORE), footprint + 128 * i, 4) for i in range(64)
        ]
        loads = [(int(Op.LOAD), footprint + 128 * i, 2) for i in range(32)]
        warps = [
            WarpTrace(0, stores, max_outstanding=1),
            WarpTrace(0, loads, max_outstanding=2),
        ]
        trace = KernelTrace(
            "unit", warps, footprint, host_traffic_fraction=0.5
        )
        config = scaled_config(sm_count=1, warps_per_sm=2, link_gbps=50)
        assert_equivalent(
            trace, CompressionState.ideal(footprint), config
        )

    def test_partial_store_rmw_path(self):
        """Single-sector stores exercise the RMW fill in both engines."""
        n = 4096
        instructions = [(int(Op.STORE), (i * 128) % (n * 128), 1)
                        for i in range(512)]
        warps = [WarpTrace(0, instructions, max_outstanding=4)]
        trace = KernelTrace("unit", warps, n * 128)
        state = CompressionState(
            CompressionMode.BUDDY,
            np.full(n, 4, dtype=np.int8),
            np.full(n, 2, dtype=np.int8),
            np.zeros(n, dtype=bool),
        )
        config = scaled_config(sm_count=1, warps_per_sm=1)
        legacy, _vector = assert_equivalent(trace, state, config)
        assert legacy.demand_fills > 0  # the RMW fills actually fired

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fuzzed_unit_traces(self, seed):
        """Random streams (incl. degenerate 0-sector and 0-compute
        rows) stay equivalent across modes."""
        rng = np.random.default_rng(seed)
        n = 1024
        warps = []
        for w in range(8):
            instructions = []
            for _ in range(96):
                kind = rng.integers(0, 3)
                if kind == 0:
                    instructions.append(
                        (int(Op.COMPUTE), int(rng.integers(0, 20)), 0)
                    )
                else:
                    address = int(rng.integers(0, n * 128))
                    sectors = int(rng.integers(0, 5))
                    op = Op.LOAD if kind == 1 else Op.STORE
                    instructions.append((int(op), address, sectors))
            warps.append(
                WarpTrace(
                    w % 2, instructions,
                    max_outstanding=int(rng.integers(1, 6)),
                )
            )
        trace = KernelTrace("fuzz", warps, n * 128)
        sectors = rng.integers(1, 5, n).astype(np.int8)
        budgets = rng.integers(0, 5, n).astype(np.int8)
        zero_fit = rng.random(n) < 0.2
        config = scaled_config(sm_count=2, warps_per_sm=4)
        for mode in CompressionMode:
            if mode is CompressionMode.IDEAL:
                state = CompressionState.ideal(trace.footprint_bytes)
            else:
                state = CompressionState(mode, sectors, budgets, zero_fit)
            assert_equivalent(trace, state, config)

    def test_ideal_dirty_writebacks_match(self):
        """Sectored writeback accounting agrees between the engines."""
        config = scaled_config(sm_count=1, warps_per_sm=1)
        lines = 2 * config.l2_bytes // config.line_bytes
        instructions = [(int(Op.STORE), i * 128, 1) for i in range(lines)]
        warps = [WarpTrace(0, instructions, max_outstanding=4)]
        trace = KernelTrace("unit", warps, 1 << 24)
        legacy, _vector = assert_equivalent(
            trace, CompressionState.ideal(trace.footprint_bytes), config
        )
        assert legacy.dram_bytes > 0


# ---------------------------------------------------------------------------
# Component equivalence: cache, DRAM, interconnect, state tables.
# ---------------------------------------------------------------------------
class TestVectorCacheEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sequences_match_sectored_cache(self, seed):
        rng = np.random.default_rng(seed)
        legacy = SectoredCache(4096, ways=4)
        vector = VectorSectoredCache(4096, ways=4)
        for _ in range(2000):
            address = int(rng.integers(0, 1 << 16)) * 32
            first = int(rng.integers(0, 4))
            mask = sector_mask(first, int(rng.integers(1, 5)))
            if rng.random() < 0.5:
                assert legacy.lookup(address, mask) == vector.lookup(
                    address, mask
                )
            else:
                dirty = bool(rng.random() < 0.3)
                assert legacy.fill(address, mask, dirty) == vector.fill(
                    address, mask, dirty
                )
        assert (legacy.hits, legacy.misses) == (vector.hits, vector.misses)

    def test_batched_probe_fill_match_scalar(self):
        rng = np.random.default_rng(7)
        scalar = VectorSectoredCache(2048, ways=2)
        batched = VectorSectoredCache(2048, ways=2)
        addresses = rng.integers(0, 1 << 12, 256) * 128
        masks = np.array(
            [sector_mask(0, int(s)) for s in rng.integers(1, 5, 256)]
        )
        scalar_evictions = []
        for address, mask in zip(addresses.tolist(), masks.tolist()):
            evicted = scalar.fill(address, mask, dirty=True)
            if evicted is not None:
                scalar_evictions.append(evicted)
        assert (
            batched.fill_many(addresses, masks, dirty=True)
            == scalar_evictions
        )
        scalar_hits = [
            scalar.lookup(address, mask)
            for address, mask in zip(addresses.tolist(), masks.tolist())
        ]
        assert batched.probe_many(addresses, masks).tolist() == scalar_hits

    def test_state_arrays_shape_and_lru(self):
        cache = VectorSectoredCache(512, ways=2)  # 2 sets x 2 ways
        cache.fill(0, 0xF)
        cache.fill(512, 0xF)  # same set as 0
        cache.lookup(0, 0xF)  # 0 becomes MRU
        tags, masks, _dirty, stamps = cache.state_arrays()
        assert tags.shape == (2, 2)
        assert masks[0].tolist() == [0xF, 0xF]
        assert stamps[0].tolist() == [0, 1]
        set0 = tags[0].tolist()
        assert set0 == [4, 0]  # line 512//128=4 is now LRU, line 0 MRU


class TestBatchedReservations:
    def test_request_many_matches_scalar_sequence(self):
        scalar = ChannelSet(4, 10.0, 100)
        batched = ChannelSet(4, 10.0, 100)
        rng = np.random.default_rng(3)
        addresses = rng.integers(0, 1 << 16, 128) * 32
        counts = rng.integers(32, 256, 128)
        arrivals = np.sort(rng.random(128) * 100)
        expected = [
            scalar.request(int(a), int(n), float(t))
            for a, n, t in zip(addresses, counts, arrivals)
        ]
        got = batched.request_many(addresses, counts, arrivals)
        assert got.tolist() == expected
        assert batched.bytes_moved == scalar.bytes_moved
        assert batched.row_hits == scalar.row_hits

    def test_decompose_matches_scalar_geometry(self):
        channels = ChannelSet(6, 10.0, 100)
        addresses = np.arange(0, 6 * 2048 * 4, 128)
        chan, row, _bank = channels.decompose(addresses)
        for index, address in enumerate(addresses.tolist()):
            assert chan[index] == channels.channel_of(address)
            assert row[index] == address // 2048

    def test_link_many_match_scalar(self):
        config = scaled_config()
        scalar = Interconnect(config)
        batched = Interconnect(config)
        counts = [64, 128, 32, 256]
        arrivals = [0.0, 1.0, 2.0, 3.0]
        expected = [
            scalar.read(n, t) for n, t in zip(counts, arrivals)
        ]
        assert batched.read_many(counts, arrivals).tolist() == expected
        for n, t in zip(counts, arrivals):
            scalar.write(n, t)
        batched.write_many(counts, arrivals)
        assert batched.busy_until == scalar.busy_until
        assert batched.total_bytes == scalar.total_bytes


class TestCompressionStateTables:
    @pytest.mark.parametrize("mode", list(CompressionMode))
    def test_tables_match_scalar_methods(self, mode):
        rng = np.random.default_rng(11)
        n = 512
        sectors = rng.integers(1, 5, n).astype(np.int8)
        budgets = rng.integers(0, 5, n).astype(np.int8)
        zero_fit = rng.random(n) < 0.3
        state = CompressionState(mode, sectors, budgets, zero_fit)
        device = state.device_transfer_bytes_table()
        buddy = state.buddy_transfer_bytes_table()
        for entry in range(n):
            assert device[entry] == state.device_transfer_bytes(entry)
            assert buddy[entry] == state.buddy_transfer_bytes(entry)


# ---------------------------------------------------------------------------
# Columnar trace representation.
# ---------------------------------------------------------------------------
class TestColumnarTrace:
    def test_round_trip_is_identity(self):
        trace = generate_trace("VGG16", SMALL_TRACE)
        rebuilt = ColumnarTrace.from_warps(trace.warps)
        original = trace.columnar()
        assert (rebuilt.ops == original.ops).all()
        assert (rebuilt.a == original.a).all()
        assert (rebuilt.b == original.b).all()
        assert (rebuilt.warp_starts == original.warp_starts).all()

    def test_generated_trace_is_columnar_native(self):
        trace = generate_trace("VGG16", SMALL_TRACE)
        assert trace._columnar is not None
        assert trace._warps is None  # tuple lists materialise lazily

    def test_counts_agree_between_representations(self):
        trace = generate_trace("354.cg", SMALL_TRACE)
        columnar = trace.columnar()
        per_warp = sum(w.instruction_count for w in trace.warps)
        assert columnar.instruction_count == per_warp
        assert columnar.warp_count == len(trace.warps)

    def test_trace_requires_some_representation(self):
        with pytest.raises(ValueError):
            KernelTrace("unit")


# ---------------------------------------------------------------------------
# Golden digest: the Fig. 11 subset, identical for both engines.
# ---------------------------------------------------------------------------
class TestGoldenDigest:
    #: Pinned when the vectorized engine landed; both engines must
    #: keep producing exactly this dataset, bit for bit.
    GOLDEN = "36fffebd7889855276c66e53065155ba"

    @pytest.mark.parametrize("engine", ["vectorized", "legacy"])
    def test_fig11_subset_digest(self, engine):
        from repro.analysis.perf_study import run_perf_study

        result = run_perf_study(
            benchmarks=("VGG16", "354.cg"),
            trace_config=SMALL_TRACE,
            link_sweep=(50.0, 150.0),
            profile_config=SnapshotConfig(scale=1.0 / 65536),
            runner=ExperimentRunner(),
            engine_spec=engine,
        )
        assert result_digest(result) == self.GOLDEN
