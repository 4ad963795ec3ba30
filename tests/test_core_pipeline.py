"""Tests for the profile -> targets -> evaluate pipeline (Figs. 7-9)."""

import pytest

from repro.core.controller import BuddyCompressor
from repro.core.entry import TargetRatio
from repro.core.profile_tensor import TARGET_INDEX
from repro.core.targets import (
    FINAL,
    NAIVE,
    PER_ALLOCATION,
    apply_zero_page_indices,
    select_naive_indices,
    select_per_allocation_indices,
)
from repro.workloads.snapshots import SnapshotConfig

SMALL = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)


@pytest.fixture(scope="module")
def engine():
    return BuddyCompressor(SMALL)


@pytest.fixture(scope="module")
def sp_profile(engine):
    return engine.profile("356.sp")


@pytest.fixture(scope="module")
def resnet_profile(engine):
    return engine.profile("ResNet50")


def per_allocation(tensor, threshold=0.30):
    return select_per_allocation_indices(tensor, (threshold,))[0]


def ratio_of(tensor, selection):
    return tensor.selection_ratio(tensor.selection_indices(selection))


class TestProfiler:
    def test_profile_covers_all_allocations(self, sp_profile):
        names = set(sp_profile.names)
        assert names == {"solution", "rhs", "forcing", "lhs_work", "residuals"}

    def test_histograms_per_snapshot(self, sp_profile):
        position = sp_profile.index("solution")
        assert sp_profile.snapshot_count == 10
        assert sp_profile.merged_counts[position].sum() == sum(
            sp_profile.totals[position, snapshot] for snapshot in range(10)
        )

    def test_unknown_allocation(self, sp_profile):
        with pytest.raises(KeyError):
            sp_profile.index("bogus")

    def test_program_histogram_sums(self, sp_profile):
        assert sp_profile.program_counts.sum() == sum(
            sp_profile.merged_counts[position].sum()
            for position in range(sp_profile.allocation_count)
        )


class TestSelection:
    def test_per_allocation_respects_threshold(self, sp_profile):
        indices = per_allocation(sp_profile, threshold=0.30)
        for position, index in enumerate(indices):
            assert sp_profile.worst_overflow[index, position] <= 0.30

    def test_incompressible_stays_1x(self, sp_profile):
        selection = sp_profile.selection_from_indices(per_allocation(sp_profile))
        assert selection["lhs_work"] is TargetRatio.X1

    def test_compressible_gets_2x(self, sp_profile):
        selection = sp_profile.selection_from_indices(per_allocation(sp_profile))
        assert selection["solution"] is TargetRatio.X2

    def test_naive_is_uniform(self, sp_profile):
        assert len(set(select_naive_indices(sp_profile))) == 1

    def test_higher_threshold_never_lowers_targets(self, resnet_profile):
        batch = select_per_allocation_indices(
            resnet_profile, (0.10, 0.20, 0.30, 0.40)
        )
        for position in range(resnet_profile.allocation_count):
            ratios = [
                resnet_profile.selection_from_indices(row)[
                    resnet_profile.names[position]
                ].ratio
                for row in batch
            ]
            assert ratios == sorted(ratios)

    def test_zero_page_promotes_forcing(self, sp_profile):
        promoted = apply_zero_page_indices(per_allocation(sp_profile), sp_profile)
        position = sp_profile.index("forcing")
        assert promoted[position] == TARGET_INDEX[TargetRatio.X16]

    def test_zero_page_respects_carve_out_cap(self, sp_profile):
        promoted = apply_zero_page_indices(
            per_allocation(sp_profile), sp_profile, max_overall_ratio=4.0
        )
        assert sp_profile.selection_ratio(promoted) <= 4.0

    def test_zero_page_skips_unstable_allocations(self, engine):
        """Seismic wavefields start zero but fill in: never 16x."""
        tensor = engine.profile("355.seismic")
        promoted = apply_zero_page_indices(per_allocation(tensor), tensor)
        position = tensor.index("wavefields")
        assert promoted[position] != TARGET_INDEX[TargetRatio.X16]

    def test_selection_ratio_bounds(self, sp_profile):
        all_1x = {name: TargetRatio.X1 for name in sp_profile.names}
        assert ratio_of(sp_profile, all_1x) == pytest.approx(1.0)
        all_4x = {name: TargetRatio.X4 for name in sp_profile.names}
        assert ratio_of(sp_profile, all_4x) == pytest.approx(4.0)


class TestEvaluation:
    def test_design_point_ordering_sp(self, engine, sp_profile):
        """Fig. 7's core contract: naive < per-allocation <= final."""
        results = {}
        for design in (NAIVE, PER_ALLOCATION, FINAL):
            selection = engine.select(sp_profile, design)
            results[design.name] = engine.evaluate("356.sp", selection, design.name)
        assert (
            results["naive"].compression_ratio
            < results["per-allocation"].compression_ratio
            <= results["final"].compression_ratio
        )
        assert (
            results["naive"].buddy_access_fraction
            > results["final"].buddy_access_fraction
        )

    def test_resnet_traffic_is_stable_over_time(self, engine, resnet_profile):
        """Fig. 8: buddy accesses stay roughly constant across dumps."""
        selection = engine.select(resnet_profile, FINAL)
        result = engine.evaluate("ResNet50", selection, "final")
        fractions = [s.entry_fraction for s in result.per_snapshot]
        assert max(fractions) - min(fractions) < 0.04

    def test_hpc_traffic_below_dl(self, engine):
        hpc = engine.run("356.sp", FINAL)
        dl = engine.run("ResNet50", FINAL)
        assert hpc.buddy_access_fraction < dl.buddy_access_fraction

    def test_sector_fraction_at_most_entry_fraction_times_four(self, engine):
        result = engine.run("ResNet50", FINAL)
        assert result.buddy_sector_fraction <= 4 * result.buddy_access_fraction

    def test_place_builds_layout(self, engine, resnet_profile):
        selection = engine.select(resnet_profile, FINAL)
        allocator = engine.place("ResNet50", selection)
        assert allocator.effective_capacity_ratio() > 1.3
        names = {a.name for a in allocator.allocations}
        assert "weights" in names and "workspace" in names

    def test_evaluate_custom_selection(self, engine, sp_profile):
        all_2x = {name: TargetRatio.X2 for name in sp_profile.names}
        result = engine.evaluate("356.sp", all_2x, "all-2x")
        assert result.compression_ratio == pytest.approx(2.0)
        # lhs_work is incompressible: forcing 2x floods the link
        assert result.buddy_access_fraction > 0.05
