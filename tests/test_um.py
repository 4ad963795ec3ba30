"""Tests for the Unified Memory oversubscription model."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.um_study import BUDDY_VS_UM_LEVEL, FIG12_BENCHMARKS, FIG12_LEVELS
from repro.engine.runner import ExperimentRunner
from repro.um.oversubscription import (
    UMConfig,
    pinned_slowdown,
    um_slowdown,
    PAGE_BYTES,
    _page_stream,
    um_curve,
)
from repro.um.pages import lru_faults, lru_stack_distances

FAST = UMConfig(footprint_pages=256, accesses_per_page=8, sweeps=10)


class ResidencySet:
    """LRU set of device-resident pages with a fixed capacity: the
    per-access oracle for the stack-distance pricing."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise ValueError("device must hold at least one page")
        self.capacity = capacity_pages
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.faults = 0
        self.hits = 0
        self.evictions = 0

    def touch(self, page: int) -> bool:
        """Access a page; migrate it in on a fault.  Returns hit."""
        if page in self._pages:
            self._pages.move_to_end(page)
            self.hits += 1
            return True
        self.faults += 1
        self._pages[page] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
            self.evictions += 1
        return False

    @property
    def resident(self) -> int:
        return len(self._pages)

    @property
    def accesses(self) -> int:
        return self.hits + self.faults

    @property
    def fault_rate(self) -> float:
        return self.faults / self.accesses if self.accesses else 0.0


def walk(stream, capacity: int) -> ResidencySet:
    residency = ResidencySet(capacity)
    for page in stream:
        residency.touch(int(page))
    return residency


def oracle_slowdown(benchmark: str, level: float, config: UMConfig):
    """``(um_slowdown, fault_rate)`` from two LRU walks, the way the
    model priced one level before stack distances."""
    stream = _page_stream(benchmark, config)
    migration_ns = PAGE_BYTES / (config.link_gbps * 1e9) * 1e9
    fault_ns = config.fault_us * 1e3 / config.fault_batch + migration_ns

    def runtime(at: float) -> tuple[float, float]:
        capacity = max(1, int(config.footprint_pages * (1.0 - at)))
        residency = walk(stream, capacity)
        total = stream.size * config.access_ns + residency.faults * fault_ns
        return total, residency.fault_rate

    baseline, _ = runtime(0.0)
    total, fault_rate = runtime(level)
    return total / baseline, fault_rate


class TestResidencySet:
    def test_faults_then_hits(self):
        pool = ResidencySet(4)
        assert not pool.touch(1)
        assert pool.touch(1)
        assert pool.fault_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        pool = ResidencySet(2)
        pool.touch(1)
        pool.touch(2)
        pool.touch(1)  # refresh 1
        pool.touch(3)  # evicts 2
        assert pool.touch(1)
        assert not pool.touch(2)
        assert pool.evictions == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResidencySet(0)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_resident_never_exceeds_capacity(self, pages):
        pool = ResidencySet(8)
        for page in pages:
            pool.touch(page)
        assert pool.resident <= 8
        assert pool.accesses == len(pages)


#: Streams with few distinct pages, so capacities both above and below
#: the working set occur; each page may repeat back to back.
STREAMS = st.lists(
    st.tuples(st.integers(0, 24), st.integers(1, 3)), max_size=150
).map(lambda runs: [page for page, repeat in runs for _ in range(repeat)])
CAPACITIES = st.lists(st.integers(1, 30), min_size=1, max_size=6)


class TestStackDistance:
    def test_distances_by_hand(self):
        stream = [0, 1, 0, 0, 2, 1, 0]  # a b a a c b a
        assert lru_stack_distances(stream).tolist() == [-1, -1, 1, 0, -1, 2, 2]

    def test_empty_stream(self):
        assert lru_faults(np.zeros(0, dtype=np.int64), [1, 4]) == [0, 0]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            lru_faults(np.arange(4), [0])

    @given(STREAMS, CAPACITIES)
    @settings(max_examples=200, deadline=None)
    def test_faults_equal_lru_walk(self, stream, capacities):
        expected = [walk(stream, capacity).faults for capacity in capacities]
        assert lru_faults(np.array(stream, dtype=np.int64), capacities) == expected

    @given(st.permutations(range(40)), CAPACITIES)
    @settings(max_examples=50, deadline=None)
    def test_all_distinct_stream_always_faults(self, pages, capacities):
        stream = np.array(pages * 2, dtype=np.int64)
        expected = [walk(stream, capacity).faults for capacity in capacities]
        assert lru_faults(stream, capacities) == expected
        assert lru_faults(stream[:40], capacities) == [40] * len(capacities)

    @given(STREAMS)
    @settings(max_examples=50, deadline=None)
    def test_capacity_one_hits_only_immediate_repeats(self, stream):
        array = np.array(stream, dtype=np.int64)
        repeats = int(np.count_nonzero(array[1:] == array[:-1]))
        assert lru_faults(array, [1]) == [array.size - repeats]

    def test_counts_are_python_ints(self):
        faults = lru_faults(np.array([3, 1, 3, 2]), [1, 2])
        assert all(type(value) is int for value in faults)


class TestOneStackDistancePass:
    @pytest.mark.parametrize("name", FIG12_BENCHMARKS)
    def test_curve_equals_lru_walks(self, name):
        levels = (*FIG12_LEVELS, BUDDY_VS_UM_LEVEL)
        rows = um_curve(name, levels, FAST)
        for row, level in zip(rows, levels):
            slowdown, fault_rate = oracle_slowdown(name, level, FAST)
            assert row.um_slowdown == slowdown
            assert row.fault_rate == fault_rate
            assert type(row.um_slowdown) is float
            assert type(row.fault_rate) is float

    def test_fig12_experiment_at_buddy_vs_um_level_equals_lru_walks(self):
        """Sec. 4.3 reads UM's 50 %-oversubscription slowdowns from the
        registered ``um.fig12`` experiment: one row per benchmark, each
        priced exactly as the per-access LRU walk."""
        rows = ExperimentRunner().run(
            "um.fig12", {"levels": (BUDDY_VS_UM_LEVEL,), "config": FAST}
        )
        assert [row.benchmark for row in rows] == list(FIG12_BENCHMARKS)
        for row in rows:
            slowdown, fault_rate = oracle_slowdown(
                row.benchmark, BUDDY_VS_UM_LEVEL, FAST
            )
            assert row.oversubscription == BUDDY_VS_UM_LEVEL
            assert row.um_slowdown == slowdown
            assert row.fault_rate == fault_rate


class TestUMModel:
    def test_no_oversubscription_is_baseline(self):
        result = um_slowdown("356.sp", 0.0, FAST)
        assert result.um_slowdown == pytest.approx(1.0)

    def test_slowdown_monotone_in_oversubscription(self):
        values = [
            um_slowdown("360.ilbdc", level, FAST).um_slowdown
            for level in (0.0, 0.2, 0.4)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_random_access_collapses_hardest(self):
        ilbdc = um_slowdown("360.ilbdc", 0.4, FAST)
        palm = um_slowdown("351.palm", 0.4, FAST)
        assert ilbdc.um_slowdown > 2 * palm.um_slowdown

    def test_ilbdc_worse_than_pinned(self):
        """The paper's headline: UM loses to plain pinning."""
        result = um_slowdown("360.ilbdc", 0.4, FAST)
        assert result.um_slowdown > result.pinned_slowdown

    def test_pinned_independent_of_oversubscription(self):
        a = um_slowdown("356.sp", 0.1, FAST).pinned_slowdown
        b = um_slowdown("356.sp", 0.4, FAST).pinned_slowdown
        assert a == b

    def test_pinned_bounded_by_bandwidth_ratio(self):
        for name in ("351.palm", "356.sp", "360.ilbdc"):
            slowdown = pinned_slowdown(name, FAST)
            assert 1.0 < slowdown <= FAST.device_gbps / FAST.link_gbps

    def test_faster_link_reduces_pinned_penalty(self):
        slow = pinned_slowdown("356.sp", UMConfig(link_gbps=32.0))
        fast = pinned_slowdown("356.sp", UMConfig(link_gbps=150.0))
        assert fast < slow

    def test_invalid_oversubscription(self):
        with pytest.raises(ValueError):
            um_slowdown("356.sp", 1.0, FAST)

    def test_study_shape(self):
        rows = um_curve("356.sp", (0.0, 0.2), FAST)
        assert len(rows) == 2
        assert {r.oversubscription for r in rows} == {0.0, 0.2}
