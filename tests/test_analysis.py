"""Tests for the analysis drivers and the CLI."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.compression_study import fig6_heatmap
from repro.analysis.metadata_study import two_way_hit_rates
from repro.cli import main
from repro.core.metadata_cache import MetadataCache
from repro.engine.cache import result_digest
from repro.engine.experiments import render_heatmap, suite_gmean
from repro.engine.runner import ExperimentRunner
from repro.units import ENTRIES_PER_PAGE, KIB
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig

TINY = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)


def test_analysis_modules_never_import_the_runner():
    """A figure is computed only by running its registered experiment:
    no analysis module reaches for a runner of its own (function-level
    imports included)."""
    from repro.engine.salts import package_graph

    graph = package_graph()
    runners = {"repro.engine.runner", "repro.api"}
    offenders = [
        module
        for module in graph.paths
        if module.startswith("repro.analysis.")
        and runners & set(graph.imports(module))
    ]
    assert offenders == []


class TestCompressionStudy:
    def test_fig3_subset(self):
        rows = ExperimentRunner().run(
            "compression.fig3", {"benchmarks": ("356.sp", "354.cg"), "config": TINY}
        )
        by_name = {r.benchmark: r for r in rows}
        assert by_name["356.sp"].mean_ratio > by_name["354.cg"].mean_ratio
        assert len(by_name["356.sp"].per_snapshot) == 10

    def test_suite_gmean_empty(self):
        assert suite_gmean([], True) == 0.0

    def test_fig3_experiment_matches_per_dump_oracle(self):
        """The registered Fig. 3 at TINY equals sizing each dump on its
        own, float for float, and every ratio is a Python float (an
        equal np.float64 would change the result digest)."""
        from repro.compression.bpc import BPCCompressor
        from repro.compression.sectors import free_sizes_for_sizes
        from repro.compression.zeroblock import zero_mask
        from repro.units import MEMORY_ENTRY_BYTES
        from repro.workloads.snapshots import generate_run

        names = ("354.cg", "AlexNet")
        rows = ExperimentRunner().run(
            "compression.fig3", {"benchmarks": names, "config": TINY}
        )
        bpc = BPCCompressor()
        for name, row in zip(names, rows):
            expected = []
            for snapshot in generate_run(name, TINY):
                data = snapshot.stacked_data()
                free = free_sizes_for_sizes(
                    bpc.compressed_sizes(data), zero_mask(data)
                )
                expected.append(
                    data.shape[0] * MEMORY_ENTRY_BYTES / max(int(free.sum()), 1)
                )
            assert row.per_snapshot == expected
            assert all(type(ratio) is float for ratio in row.per_snapshot)

    def test_fig3_and_fig7_generate_each_dump_once(self, tmp_path):
        """A cold serial Fig. 3 + Fig. 7 sweep generates each dump of
        both roles once (Fig. 3 reads the reference-role pass Fig. 7
        builds), and a warm rerun generates nothing."""
        from repro.core.profiler import clear_profile_cache
        from repro.engine.cache import ResultCache
        from repro.workloads.snapshots import generation_count

        names = ("356.sp", "354.cg", "VGG16")
        requests = [
            (name, {"benchmarks": names, "config": TINY})
            for name in ("compression.fig3", "compression.fig7")
        ]
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        clear_profile_cache()
        before = generation_count()
        runner.run_sweep(requests)
        per_run = TINY.snapshots + TINY.as_profile().snapshots
        assert generation_count() - before == per_run * len(names)

        clear_profile_cache()
        before = generation_count()
        runner.run_sweep(requests)
        assert generation_count() == before

    def test_fig3_recomputes_missing_free_bytes(self, tmp_path):
        """With only the ``profile.free`` entries gone from a warm
        cache, Fig. 3 rebuilds them through the bulk pass and gives the
        same answer."""
        from repro.core.profiler import clear_profile_cache
        from repro.engine.cache import ResultCache

        cache = ResultCache(tmp_path)
        params = {"benchmarks": ("356.sp", "BigLSTM"), "config": TINY}
        warm = ExperimentRunner(cache=cache).run("compression.fig3", params)
        assert cache.clear("profile.free") == 2
        clear_profile_cache()
        # Another seed misses the point cache (Fig. 3 does not read the
        # seed), so the points run against the stored tensors alone.
        rerun = ExperimentRunner(cache=cache, seed=7).run(
            "compression.fig3", params
        )
        assert result_digest(rerun) == result_digest(warm)
        assert cache.usage().per_experiment["profile.free"][0] == 2

    def test_fig6_heatmap_shape(self):
        heatmap = fig6_heatmap("356.sp", snapshot_index=5, config=TINY)
        assert heatmap.shape[1] == ENTRIES_PER_PAGE
        assert set(np.unique(heatmap)) <= {1, 2, 3, 4}

    def test_render_heatmap(self):
        heatmap = fig6_heatmap("354.cg", snapshot_index=5, config=TINY)
        text = render_heatmap(heatmap, max_rows=4)
        assert len(text.splitlines()) <= 4
        assert "#" in text  # cg is mostly incompressible


class TestMetadataStudy:
    def test_hit_rate_monotone(self):
        trace_config = TraceConfig(
            sm_count=4,
            warps_per_sm=8,
            memory_instructions_per_warp=24,
            snapshot_config=SnapshotConfig(scale=1.0 / 8192),
        )
        rows = ExperimentRunner().run(
            "metadata.fig5b",
            {
                "benchmarks": ("VGG16",),
                "sizes": (1 * KIB, 8 * KIB),
                "trace_config": trace_config,
            },
        )
        rates = rows[0].hit_rates
        assert rates[8 * KIB] >= rates[1 * KIB]

    #: Total sizes of 1 to 16 sets per slice at the study's geometry.
    SIZES = (128, 256, 512, 1024, 2048)

    @given(st.lists(st.integers(0, 200), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_two_way_hits_equal_cache_walk(self, lines):
        rates = two_way_hit_rates(np.array(lines, dtype=np.int64), self.SIZES)
        for size in self.SIZES:
            cache = MetadataCache(size, ways=2, slices=2)
            for line in lines:
                cache.access_line(line)
            assert rates[size] == cache.stats.hit_rate
            assert type(rates[size]) is float

    def test_empty_stream_hit_rate_is_zero(self):
        assert two_way_hit_rates(np.zeros(0, dtype=np.int64), (1 * KIB,)) == {
            1 * KIB: 0.0
        }

    def test_size_must_divide_into_geometry(self):
        with pytest.raises(ValueError):
            two_way_hit_rates(np.arange(8), (100,))


class TestRegistryDefaultDigests:
    """The registry-default Fig. 3, 6, 5b and 12 datasets, pinned to
    the same digests as the repository benchmark's goldens (Fig. 6 has
    none there).  A NumPy scalar leaking into a result moves its
    digest."""

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("compression.fig3", "96f5ccb85a73f44be69ecaed2d39296a"),
            ("compression.fig6", "e9c23446f423c656db1f255bb577f9f6"),
            ("metadata.fig5b", "562a89aa1e09bb1e6df706c47148bda7"),
            ("um.fig12", "b81cf2044373bee106b5b96764a2032d"),
        ],
    )
    def test_default_digest(self, name, digest):
        assert result_digest(ExperimentRunner().run(name)) == digest


class TestPerfStudySmall:
    def test_subset_runs(self):
        trace_config = TraceConfig(
            sm_count=4,
            warps_per_sm=8,
            memory_instructions_per_warp=24,
            snapshot_config=SnapshotConfig(scale=1.0 / 8192),
        )
        from repro.gpusim.config import scaled_config

        result = ExperimentRunner().run(
            "perf.fig11",
            {
                "benchmarks": ("370.bt",),
                "config": scaled_config(sm_count=4, warps_per_sm=8),
                "trace_config": trace_config,
                "link_sweep": (150.0,),
                "profile_config": TINY,
            },
        )
        row = result.per_benchmark[0]
        assert row.benchmark == "370.bt"
        assert row.bandwidth_only > 0
        assert 150.0 in row.buddy


class TestCLI:
    def test_rejects_unknown_experiment(self):
        # Figures are ``repro run`` experiments; there are no ``figN``
        # alias subcommands.
        for command in ("fig99", "fig7"):
            with pytest.raises(SystemExit) as excinfo:
                main([command])
            assert excinfo.value.code == 2

    def test_fig6_runs(self, capsys):
        assert main(["run", "compression.fig6", "354.cg", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "354.cg" in out
