"""Tests for the analysis drivers and the CLI."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.compression_study import (
    fig6_heatmap,
    render_heatmap,
    suite_gmean,
)
from repro.analysis.metadata_study import two_way_hit_rates
from repro.cli import main
from repro.core.metadata_cache import MetadataCache
from repro.engine.cache import result_digest
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

    def test_free_size_study_one_bulk_call_per_codec(self):
        """The Fig. 3 stacked pass: each benchmark's blocks stack once
        and every codec sizes that one array with one bulk call."""
        from repro.analysis.compression_study import free_size_study
        from repro.compression import BDICompressor, BPCCompressor
        from repro.core.profiler import bulk_compression_call_count
        from repro.workloads.snapshots import generation_count

        calls = bulk_compression_call_count()
        generations = generation_count()
        rows = free_size_study(
            "356.sp", TINY, (BPCCompressor(), BDICompressor())
        )
        assert bulk_compression_call_count() - calls == 2
        # Each dump is generated once and stacked, not once per codec.
        assert generation_count() - generations == TINY.snapshots
        assert set(rows) == {"bpc", "bdi"}

    def test_free_size_study_matches_per_snapshot_path(self):
        """Stacked sizing is element-wise identical to sizing each
        dump separately (entries compress independently)."""
        from repro.analysis.compression_study import free_size_study
        from repro.compression import BPCCompressor, free_sizes_for_sizes
        from repro.compression.zeroblock import zero_mask
        from repro.units import MEMORY_ENTRY_BYTES
        from repro.workloads.snapshots import generate_run

        stacked = free_size_study("354.cg", TINY)["bpc"]
        bpc = BPCCompressor()
        expected = []
        for snapshot in generate_run("354.cg", TINY):
            data = snapshot.stacked_data()
            free = free_sizes_for_sizes(
                bpc.compressed_sizes(data), zero_mask(data)
            )
            expected.append(
                data.shape[0] * MEMORY_ENTRY_BYTES / max(int(free.sum()), 1)
            )
        assert stacked.per_snapshot == expected

    def test_fig6_heatmap_shape(self):
        heatmap = fig6_heatmap("356.sp", config=TINY)
        assert heatmap.shape[1] == ENTRIES_PER_PAGE
        assert set(np.unique(heatmap)) <= {1, 2, 3, 4}

    def test_render_heatmap(self):
        heatmap = fig6_heatmap("354.cg", config=TINY)
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
        from repro.gpusim import scaled_config

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
