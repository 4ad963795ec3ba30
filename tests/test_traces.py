"""Tests for the warp-instruction trace generator."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.profiler import set_tensor_cache
from repro.engine.cache import ResultCache
from repro.engine.runner import run_point_seeded
from repro.engine.store import process_store
from repro.gpusim.trace import Op
from repro.units import MEMORY_ENTRY_BYTES
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import (
    TraceConfig,
    generate_trace,
    stored_trace,
    trace_cache_key,
)
from sim_oracle import decode

SMALL = TraceConfig(
    sm_count=4,
    warps_per_sm=8,
    memory_instructions_per_warp=32,
    snapshot_config=SnapshotConfig(scale=1.0 / 16384, min_footprint_bytes=256 * 1024),
)


@pytest.fixture(scope="module")
def vgg_trace():
    return generate_trace("VGG16", SMALL)


@pytest.fixture(scope="module")
def cg_trace():
    return generate_trace("354.cg", SMALL)


class TestTraceStructure:
    def test_warp_population(self, vgg_trace):
        assert vgg_trace.warp_count == SMALL.sm_count * SMALL.warps_per_sm
        sms = {warp.sm for warp in decode(vgg_trace)}
        assert sms == set(range(SMALL.sm_count))

    def test_memory_instruction_budget(self, vgg_trace):
        for warp in decode(vgg_trace):
            memory = sum(1 for i in warp.instructions if i[0] != Op.COMPUTE)
            assert memory == SMALL.memory_instructions_per_warp

    def test_determinism(self):
        a = generate_trace("356.sp", SMALL)
        b = generate_trace("356.sp", SMALL)
        assert decode(a)[3].instructions == decode(b)[3].instructions

    def test_addresses_inside_footprint_or_host(self, vgg_trace):
        limit = vgg_trace.footprint_bytes * (
            2 if vgg_trace.host_traffic_fraction else 1
        )
        for warp in decode(vgg_trace):
            for op, address, sectors in warp.instructions:
                if op == Op.COMPUTE:
                    continue
                assert 0 <= address < limit
                assert 1 <= sectors <= 4
                # sector range stays within the 128 B line
                offset = (address % MEMORY_ENTRY_BYTES) // 32
                assert offset + sectors <= 4

    def test_allocation_ranges_cover_footprint(self, vgg_trace):
        total = sum(end - start for start, end in vgg_trace.allocation_ranges.values())
        assert total == vgg_trace.footprint_bytes


class TestAccessCharacter:
    def test_streaming_is_coalesced(self, vgg_trace):
        sectors = [
            i[2] for w in decode(vgg_trace) for i in w.instructions
            if i[0] != Op.COMPUTE
        ]
        assert np.mean(sectors) == 4.0

    def test_random_touches_single_sectors(self, cg_trace):
        sectors = [
            i[2] for w in decode(cg_trace) for i in w.instructions
            if i[0] != Op.COMPUTE
        ]
        assert np.mean(sectors) < 1.5

    def test_latency_sensitivity_maps_to_mlp(self):
        lulesh = generate_trace("FF_Lulesh", SMALL)
        vgg = generate_trace("VGG16", SMALL)
        lulesh_mlp = decode(lulesh)[0].max_outstanding
        assert lulesh_mlp < decode(vgg)[0].max_outstanding

    def test_host_traffic_only_for_hpgmg(self):
        hpgmg = generate_trace("FF_HPGMG", SMALL)
        assert hpgmg.host_traffic_fraction > 0
        host_accesses = sum(
            1
            for w in decode(hpgmg)
            for i in w.instructions
            if i[0] != Op.COMPUTE and i[1] >= hpgmg.footprint_bytes
        )
        assert host_accesses > 0
        vgg = generate_trace("VGG16", SMALL)
        assert vgg.host_traffic_fraction == 0

    def test_access_weights_shape_hot_set(self):
        """DL scratch gets more dynamic accesses per byte than weights."""
        trace = generate_trace("ResNet50", SMALL)
        ranges = trace.allocation_ranges
        counts = {name: 0 for name in ranges}
        for warp in decode(trace):
            for op, address, _ in warp.instructions:
                if op == Op.COMPUTE:
                    continue
                counts[trace.allocation_of(address)] += 1
        sizes = {n: (e - s) for n, (s, e) in ranges.items()}
        weight_rate = counts["weights"] / sizes["weights"]
        scratch_rate = counts["workspace"] / sizes["workspace"]
        assert scratch_rate > 1.5 * weight_rate

    def test_compute_intensity_tracks_character(self):
        ep = generate_trace("352.ep", SMALL)  # compute-heavy
        ilbdc = generate_trace("360.ilbdc", SMALL)  # bandwidth-bound
        def intensity(trace):
            compute = sum(
                i[1] for w in decode(trace) for i in w.instructions
                if i[0] == Op.COMPUTE
            )
            return compute / trace.memory_instruction_count
        assert intensity(ep) > 2 * intensity(ilbdc)


# ---------------------------------------------------------------------------
# Traces as store artifacts (``trace.columnar``).
# ---------------------------------------------------------------------------
def _assert_same_columns(got, want):
    assert got.benchmark == want.benchmark
    assert got.footprint_bytes == want.footprint_bytes
    assert got.allocation_ranges == want.allocation_ranges
    assert got.host_traffic_fraction == want.host_traffic_fraction
    for column in fields(want.columnar()):
        a = getattr(got.columnar(), column.name)
        b = getattr(want.columnar(), column.name)
        assert a.dtype == b.dtype, column.name
        assert np.array_equal(a, b), column.name


@pytest.fixture
def disk_tier(tmp_path):
    """A fresh result cache installed as the process store's disk tier."""
    cache = ResultCache(tmp_path)
    previous = set_tensor_cache(cache)
    yield cache
    set_tensor_cache(previous)


class TestStoredTrace:
    def test_stored_columns_equal_fresh_columns(self, disk_tier, generations):
        built = stored_trace("FF_HPGMG", SMALL)
        loaded = stored_trace("FF_HPGMG", SMALL)
        assert len(generations) == 1
        assert loaded is not built  # read back from disk, not memory
        _assert_same_columns(loaded, generate_trace("FF_HPGMG", SMALL))

    def test_truncated_entry_is_rebuilt_once(self, disk_tier, generations):
        stored_trace("354.cg", SMALL)
        path = disk_tier.path_for(trace_cache_key("354.cg", SMALL))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        del generations[:]
        first = stored_trace("354.cg", SMALL)
        second = stored_trace("354.cg", SMALL)
        assert generations == [("354.cg", SMALL)]
        assert path.read_bytes() != blob[: len(blob) // 2]
        _assert_same_columns(second, first)

    def test_key_is_per_benchmark_and_config(self):
        other = TraceConfig(
            sm_count=4,
            warps_per_sm=8,
            memory_instructions_per_warp=33,
            snapshot_config=SMALL.snapshot_config,
        )
        keys = {
            trace_cache_key("VGG16", SMALL),
            trace_cache_key("VGG16", other),
            trace_cache_key("AlexNet", SMALL),
        }
        assert len(keys) == 3
        assert {key.experiment for key in keys} == {"trace.columnar"}

    def test_memory_tier_never_holds_a_trace(self, tmp_path):
        from repro.engine.registry import get_experiment

        experiment = get_experiment("metadata.fig5b")
        point = experiment.expand(
            experiment.resolve_params(
                {"benchmarks": ("VGG16",), "trace_config": SMALL}
            )
        )[0]
        for _ in range(2):  # a build, then a disk hit
            run_point_seeded(experiment.run_point, point, 1, str(tmp_path))
        assert ResultCache(tmp_path).contains(trace_cache_key("VGG16", SMALL))
        resident = [key.experiment for key in process_store()._entries]
        assert "profile.entries" in resident
        assert "trace.columnar" not in resident
