"""Tests for the synthetic workload substrate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.paper_reference import CLAIMS
from repro.compression.bpc import BPCCompressor
from repro.compression.sectors import sectors_for_sizes
from repro.units import GB, MB
from repro.workloads.catalog import (
    ALL_BENCHMARKS,
    DL_BENCHMARKS,
    HPC_BENCHMARKS,
    get_benchmark,
)
from repro.workloads.snapshots import (
    SnapshotConfig,
    generate_run,
    generate_snapshot,
)
from repro.workloads.calibration import (
    AllocationSpec,
    ClassMix,
    all_specs,
    data_spec,
)
from repro.workloads.valuemodels import EntryClass, generate_entries

BPC = BPCCompressor()
SMALL = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)


class TestCatalog:
    def test_table1_counts(self):
        assert len(ALL_BENCHMARKS) == 16
        assert len(HPC_BENCHMARKS) == 10
        assert len(DL_BENCHMARKS) == 6

    def test_table1_footprints(self):
        assert get_benchmark("VGG16").footprint_bytes == int(11.08 * GB)
        assert get_benchmark("370.bt").footprint_bytes == int(1.21 * MB)
        assert get_benchmark("354.cg").footprint_bytes == int(1.23 * GB)

    def test_aliases(self):
        assert get_benchmark("FF_HPGMG-FV").name == "FF_HPGMG"
        assert get_benchmark("SqueezeNetv1.1").name == "SqueezeNet"

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            get_benchmark("355.nonexistent")

    def test_every_benchmark_has_a_data_spec(self):
        for bench in ALL_BENCHMARKS:
            spec = data_spec(bench.name)
            assert spec.benchmark == bench.name

    def test_suite_partitioning(self):
        for bench in ALL_BENCHMARKS:
            assert bench.is_hpc == (bench not in DL_BENCHMARKS)


class TestClassMix:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            ClassMix(zero=0.5, sector4=0.4)

    def test_blend_endpoints(self):
        a = ClassMix(zero=1.0)
        b = ClassMix(sector4=1.0)
        np.testing.assert_allclose(a.blend(b, 0.0).as_array(), a.as_array())
        np.testing.assert_allclose(a.blend(b, 1.0).as_array(), b.as_array())

    @given(st.floats(0.0, 1.0))
    def test_blend_is_a_distribution(self, w):
        a = ClassMix(zero=0.3, sector2=0.5, sector4=0.2)
        b = ClassMix(const=0.1, sector1=0.6, sector3=0.3)
        assert a.blend(b, w).as_array().sum() == pytest.approx(1.0)

    def test_allocation_fractions_validated(self):
        from repro.workloads.calibration import BenchmarkDataSpec

        with pytest.raises(ValueError, match="fractions sum"):
            BenchmarkDataSpec(
                "bogus",
                (AllocationSpec("a", 0.5, ClassMix(sector4=1.0)),),
            )


class TestValueModels:
    def test_classes_land_in_their_sector_buckets(self):
        """The calibration contract: class -> sector mapping is tight."""
        rng = np.random.default_rng(1234)
        for cls in EntryClass:
            data = generate_entries(np.full(500, int(cls)), rng)
            sectors = sectors_for_sizes(BPC.compressed_sizes(data))
            expected = cls.nominal_sectors
            hit = float((sectors == expected).mean())
            assert hit > 0.98, f"{cls.name}: only {hit:.0%} land in {expected} sectors"

    def test_zero_class_is_zero(self):
        rng = np.random.default_rng(1)
        data = generate_entries(np.full(10, int(EntryClass.ZERO)), rng)
        assert not data.any()

    def test_zero_eligibility_classes_fit_8_bytes(self):
        rng = np.random.default_rng(2)
        for cls in (EntryClass.ZERO, EntryClass.CONST):
            data = generate_entries(np.full(200, int(cls)), rng)
            sizes = BPC.compressed_sizes(data)
            assert sizes.max() <= 8


class TestSnapshots:
    def test_snapshot_shape(self):
        snap = generate_snapshot("356.sp", 0, SMALL)
        assert snap.benchmark == "356.sp"
        assert snap.entries > 0
        for alloc in snap.allocations:
            assert alloc.data.shape == (alloc.entries, 32)
            assert alloc.data.dtype == np.uint32

    def test_snapshot_is_deterministic(self):
        a = generate_snapshot("VGG16", 3, SMALL)
        b = generate_snapshot("VGG16", 3, SMALL)
        np.testing.assert_array_equal(a.stacked_data(), b.stacked_data())

    def test_profile_differs_from_reference(self):
        ref = generate_snapshot("VGG16", 0, SMALL)
        prof = generate_snapshot("VGG16", 0, SMALL.as_profile())
        assert prof.entries < ref.entries  # smaller profiling dataset

    def test_index_bounds(self):
        with pytest.raises(ValueError, match="snapshot index"):
            generate_snapshot("VGG16", 10, SMALL)

    def test_run_yields_all_snapshots(self):
        snaps = list(generate_run("370.bt", SMALL))
        assert [s.index for s in snaps] == list(range(10))
        assert snaps[0].progress == 0.0
        assert snaps[-1].progress == 1.0

    def test_allocation_lookup(self):
        snap = generate_snapshot("ResNet50", 0, SMALL)
        assert snap.allocation("weights").name == "weights"
        with pytest.raises(KeyError):
            snap.allocation("nonexistent")

    def test_seismic_compressibility_drifts_down(self):
        """355.seismic starts near-zero and asymptotes to ~2x (Fig. 3)."""
        ratios = []
        for snap in generate_run("355.seismic", SMALL):
            data = snap.stacked_data()
            ratios.append(128 * data.shape[0] / BPC.compressed_sizes(data).sum())
        assert ratios[0] > 2 * ratios[-1]
        assert ratios[-1] > 1.5

    def test_run_carries_churn_like_a_replay(self):
        """A run's dumps continue the previous dump's latents; each
        equals the dump generated alone, which replays every step."""
        for role in (SMALL, SMALL.as_profile()):
            for index, carried in enumerate(generate_run("ResNet50", role)):
                alone = generate_snapshot("ResNet50", index, role)
                for a, b in zip(carried.allocations, alone.allocations):
                    np.testing.assert_array_equal(a.latents, b.latents)
                    np.testing.assert_array_equal(a.data, b.data)

    def test_previous_must_be_the_dump_before(self):
        first = generate_snapshot("ResNet50", 0, SMALL)
        with pytest.raises(ValueError, match="cannot continue"):
            generate_snapshot("ResNet50", 2, SMALL, first)
        with pytest.raises(ValueError, match="cannot continue"):
            generate_snapshot("VGG16", 1, SMALL, first)

    def test_dl_churn_changes_entries_but_not_mix(self):
        """Fig. 8's observation: entries churn, the aggregate stays put."""
        snaps = [generate_snapshot("ResNet50", i, SMALL) for i in (0, 5)]
        first = snaps[0].allocation("activations").classes
        later = snaps[1].allocation("activations").classes
        changed = float((first != later).mean())
        assert changed > 0.2  # plenty of churn after 5 steps
        mix_drift = abs(
            np.bincount(first, minlength=6) / first.size
            - np.bincount(later, minlength=6) / later.size
        ).max()
        assert mix_drift < 0.05  # but the aggregate mix is stable

    def test_hpc_is_temporally_stable(self):
        a = generate_snapshot("356.sp", 0, SMALL)
        b = generate_snapshot("356.sp", 9, SMALL)
        mix_a = np.bincount(a.stacked_classes(), minlength=6) / a.entries
        mix_b = np.bincount(b.stacked_classes(), minlength=6) / b.entries
        assert abs(mix_a - mix_b).max() < 0.02

    def test_striped_layout_is_periodic(self):
        snap = generate_snapshot("FF_HPGMG", 0, SMALL)
        classes = snap.allocation("box_structs").classes
        period = snap.allocation("box_structs").spec.stripe_period
        full = classes[: (classes.size // period) * period].reshape(-1, period)
        # every period repeats the same class pattern
        assert (full == full[0]).all()


class TestCalibrationQuality:
    """The substrate-level contracts the studies rely on."""

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.benchmark)
    def test_mixes_are_distributions(self, spec):
        for alloc in spec.allocations:
            assert alloc.mix.as_array().sum() == pytest.approx(1.0)
            if alloc.end_mix is not None:
                assert alloc.end_mix.as_array().sum() == pytest.approx(1.0)

    def test_fig3_suite_gmeans(self):
        """Measured free-size ratios (HPC ~2.4, DL ~1.7) sit in the Fig. 3 bands."""
        from repro.compression.sectors import free_sizes_for_sizes
        from repro.compression.zeroblock import zero_mask

        gmeans = {}
        for suite, benches in (("hpc", HPC_BENCHMARKS), ("dl", DL_BENCHMARKS)):
            logs = []
            for bench in benches:
                ratios = []
                for index in (0, 5, 9):
                    snap = generate_snapshot(bench.name, index, SMALL)
                    data = snap.stacked_data()
                    sizes = BPC.compressed_sizes(data)
                    free = free_sizes_for_sizes(sizes, zero_mask(data))
                    ratios.append(128 * data.shape[0] / max(free.sum(), 1))
                logs.append(np.log(np.mean(ratios)))
            gmeans[suite] = float(np.exp(np.mean(logs)))
        for suite in ("hpc", "dl"):
            claim = CLAIMS[f"fig3.{suite}_gmean"]
            assert claim.low < gmeans[suite] < claim.high
        assert gmeans["hpc"] > gmeans["dl"]  # the paper's headline ordering


class TestSnapshotMemo:
    """Every call generates afresh; the content is a pure function of
    the arguments."""

    def test_clear_regenerates_identical_content(self):
        first = generate_snapshot("370.bt", 2, SMALL)
        fresh = generate_snapshot("370.bt", 2, SMALL)
        assert fresh is not first
        np.testing.assert_array_equal(
            fresh.stacked_data(), first.stacked_data()
        )
