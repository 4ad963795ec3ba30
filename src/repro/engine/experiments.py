"""Built-in experiments: one per analysis study.

Each study module owns its pickle-safe per-point function (named
``*_point``); this module declares the parameter spaces, reducers and
text formatters and registers everything.  Study modules are imported
lazily inside the callables so importing the engine stays cheap and
cycle-free.  The formatters live here rather than in the study
modules because the study modules are salted: a cosmetic change to a
table must not invalidate cached results.

Registered experiments::

    compression.fig3   free-size BPC ratios per benchmark (Fig. 3)
    compression.fig6   per-page compressibility heatmaps (Fig. 6)
    compression.fig7   naive / per-allocation / final designs (Fig. 7)
    compression.fig8   temporal stability of buddy traffic (Fig. 8)
    compression.fig9   Buddy Threshold sweep (Fig. 9)
    metadata.fig5b     metadata-cache hit rate vs capacity (Fig. 5b)
    correlation.fig10  fast-vs-reference simulator correlation (Fig. 10)
    perf.fig11         speedup vs ideal GPU across link speeds (Fig. 11)
    um.fig12           UM / pinned oversubscription slowdowns (Fig. 12)
    dl.ratios          per-network buddy compression ratios
    dl.fig13           the four DL case-study panels (Fig. 13)
    serve.advice       the advisor service's answer, one-shot form

The two timing studies carry an ``engine`` parameter
("vectorized" / "relaxed" / "legacy", see docs/engines.md) and a
``verify`` fraction (the relaxed engine's sampled oracle
cross-check); both are ordinary cache-key axes, so results produced
by different simulator cores are addressed separately and never mix.
"""

from __future__ import annotations

from repro.analysis import paper_reference as paper
from repro.engine.registry import Experiment, register

#: Modules every study's results depend on (workload substrate).
_SUBSTRATE_MODULES = (
    "repro.rng",
    "repro.units",
    "repro.workloads.calibration",
    "repro.workloads.catalog",
    "repro.workloads.snapshots",
    "repro.workloads.valuemodels",
)

#: Additional modules behind the Buddy static pipeline (the BPC codec
#: with its encoder substrate, and the controller with its allocator
#: and entry layout).
_PIPELINE_MODULES = _SUBSTRATE_MODULES + (
    "repro.compression.base",
    "repro.compression.bitio",
    "repro.compression.bpc",
    "repro.compression.sectors",
    "repro.core.allocator",
    "repro.core.controller",
    "repro.core.entry",
    "repro.core.histogram",
    "repro.core.profile_tensor",
    "repro.core.profiler",
    "repro.core.targets",
)

#: The comparison codecs the free-size compression study sweeps
#: (Fig. 3's codec shoot-out); only compression.* experiments reach
#: them.
_CODEC_COMPARISON_MODULES = (
    "repro.compression.bdi",
    "repro.compression.cpack",
    "repro.compression.fpc",
    "repro.compression.zeroblock",
)

#: Salt of every compression.* experiment (Figs. 3, 6, 7, 8, 9).
_COMPRESSION_STUDY_MODULES = (
    _PIPELINE_MODULES
    + _CODEC_COMPARISON_MODULES
    + ("repro.analysis.compression_study",)
)

#: The DL-training analytics stack behind dl.ratios / dl.fig13.
_DLMODEL_MODULES = (
    "repro.dlmodel.casestudy",
    "repro.dlmodel.convergence",
    "repro.dlmodel.layers",
    "repro.dlmodel.memory",
    "repro.dlmodel.networks",
    "repro.dlmodel.throughput",
)

#: Modules behind the timing simulators.  Trace generation and the
#: compression states consume the cached per-entry tensors, so the
#: profiler layer is part of every simulator result's code salt, and
#: both engines (the per-access oracle and the vectorized core, plus
#: the memory-system models they share) invalidate cached results.
#: The event core's Python module is salted; the compiled build is
#: deliberately *not* a cache axis — it is bit-identical to the
#: fallback by contract, and its C twin changes in lockstep with the
#: salted Python source it transcribes.
_SIMULATOR_MODULES = _SUBSTRATE_MODULES + (
    "repro.compression.base",
    "repro.compression.bitio",
    "repro.compression.bpc",
    "repro.compression.sectors",
    "repro.core.entry",
    "repro.core.histogram",
    "repro.core.metadata_cache",
    "repro.core.profile_tensor",
    "repro.core.profiler",
    "repro.gpusim._event_core",
    "repro.gpusim.engine_spec",
    "repro.gpusim.cache",
    "repro.gpusim.compression",
    "repro.gpusim.config",
    "repro.gpusim.dram",
    "repro.gpusim.interconnect",
    "repro.gpusim.simulator",
    "repro.gpusim.trace",
    "repro.gpusim.vector_sim",
    "repro.workloads.traces",
)


def _benchmark_names() -> tuple[str, ...]:
    from repro.workloads.catalog import ALL_BENCHMARKS

    return tuple(b.name for b in ALL_BENCHMARKS)


def _per_benchmark_expand(params: dict) -> list[dict]:
    """One point per benchmark, carrying the remaining parameters."""
    shared = {k: v for k, v in params.items() if k != "benchmarks"}
    return [
        {"benchmark": name, **shared} for name in params["benchmarks"]
    ]


def _keyed_by_benchmark(results: list, params: dict) -> dict:
    return dict(zip(params["benchmarks"], results))


def _as_list(results: list, params: dict) -> list:
    return list(results)


# ---------------------------------------------------------------------------
# compression.* (Figs. 3, 6, 7, 8, 9)
# ---------------------------------------------------------------------------
def _buddy_pipeline_plan(point: dict) -> list:
    from repro.analysis.compression_study import buddy_pipeline_plan

    return buddy_pipeline_plan(point)


def _fig3_defaults() -> dict:
    from repro.workloads.snapshots import SnapshotConfig

    return {"benchmarks": _benchmark_names(), "config": SnapshotConfig()}


def _fig3_point(point: dict):
    from repro.analysis.compression_study import fig3_row

    return fig3_row(point["benchmark"], point["config"])


def _fig3_plan(point: dict) -> list:
    from repro.analysis.compression_study import fig3_plan

    return fig3_plan(point)


def _fig3_format(rows) -> str:
    from repro.analysis.compression_study import suite_gmean

    lines = [f"{row.benchmark:14s} {row.mean_ratio:5.2f}" for row in rows]
    # Subset runs may leave a suite empty; a fabricated 0.00 gmean
    # against the paper value would be misleading.
    if any(row.is_hpc for row in rows):
        lines.append(
            f"GMEAN HPC {suite_gmean(rows, True):.2f} (paper {paper.FIG3_GMEAN_HPC})"
        )
    if any(not row.is_hpc for row in rows):
        lines.append(
            f"GMEAN DL  {suite_gmean(rows, False):.2f} (paper {paper.FIG3_GMEAN_DL})"
        )
    return "\n".join(lines)


register(
    Experiment(
        name="compression.fig3",
        title="Fig. 3: free-size BPC compression ratios",
        defaults=_fig3_defaults,
        expand=_per_benchmark_expand,
        run_point=_fig3_point,
        aggregate=_as_list,
        format=_fig3_format,
        salt_modules=_COMPRESSION_STUDY_MODULES,
        plan_point=_fig3_plan,
    )
)


def _fig6_defaults() -> dict:
    from repro.workloads.snapshots import SnapshotConfig

    return {
        "benchmarks": ("FF_HPGMG", "356.sp", "ResNet50"),
        "snapshot_index": 5,
        "config": SnapshotConfig(),
    }


def _fig6_point(point: dict):
    from repro.analysis.compression_study import fig6_heatmap

    return fig6_heatmap(
        point["benchmark"], point["snapshot_index"], point["config"]
    )


def _fig6_format(heatmaps) -> str:
    from repro.analysis.compression_study import render_heatmap

    return "\n".join(
        f"== {name} (.:1 -:2 +:3 #:4 sectors) ==\n{render_heatmap(heatmap)}"
        for name, heatmap in heatmaps.items()
    )


register(
    Experiment(
        name="compression.fig6",
        title="Fig. 6: per-page compressibility heatmaps",
        defaults=_fig6_defaults,
        expand=_per_benchmark_expand,
        run_point=_fig6_point,
        aggregate=_keyed_by_benchmark,
        format=_fig6_format,
        salt_modules=_COMPRESSION_STUDY_MODULES,
    )
)


def _fig7_defaults() -> dict:
    from repro.core.targets import FINAL, NAIVE, PER_ALLOCATION
    from repro.workloads.snapshots import SnapshotConfig

    return {
        "benchmarks": _benchmark_names(),
        "config": SnapshotConfig(),
        "designs": (NAIVE, PER_ALLOCATION, FINAL),
    }


def _fig7_point(point: dict):
    from repro.analysis.compression_study import fig7_benchmark

    return fig7_benchmark(point["benchmark"], point["config"], point["designs"])


def _fig7_aggregate(results: list, params: dict):
    from repro.analysis.compression_study import DesignPointStudy

    return DesignPointStudy(_keyed_by_benchmark(results, params))


def _fig7_format(study) -> str:
    from repro.workloads.catalog import get_benchmark

    # Like Fig. 3, skip a suite the (subset) run left empty instead of
    # printing suite_summary's 0.00x placeholder.
    suites = [
        (label, hpc)
        for label, hpc in (("HPC", True), ("DL", False))
        if any(get_benchmark(name).is_hpc == hpc for name in study.results)
    ]
    lines = []
    for design in ("naive", "per-allocation", "final"):
        for label, hpc in suites:
            ratio, accesses = study.suite_summary(design, hpc)
            lines.append(
                f"{design:16s} {label}: {ratio:.2f}x, "
                f"{accesses:.2%} buddy accesses"
            )
    return "\n".join(lines)


register(
    Experiment(
        name="compression.fig7",
        title="Fig. 7: design points (naive / per-allocation / final)",
        defaults=_fig7_defaults,
        expand=_per_benchmark_expand,
        run_point=_fig7_point,
        aggregate=_fig7_aggregate,
        format=_fig7_format,
        salt_modules=_COMPRESSION_STUDY_MODULES,
        plan_point=_buddy_pipeline_plan,
    )
)


def _fig8_defaults() -> dict:
    from repro.workloads.snapshots import SnapshotConfig

    return {
        "benchmarks": ("ResNet50", "SqueezeNet"),
        "config": SnapshotConfig(),
    }


def _fig8_point(point: dict):
    from repro.analysis.compression_study import fig8_benchmark

    return fig8_benchmark(point["benchmark"], point["config"])


def _fig8_format(results) -> str:
    lines = []
    for name, result in results.items():
        series = " ".join(
            f"{s.entry_fraction:.3f}" for s in result.per_snapshot
        )
        lines.append(
            f"{name:14s} ratio {result.compression_ratio:4.2f}x  {series}"
        )
    return "\n".join(lines)


register(
    Experiment(
        name="compression.fig8",
        title="Fig. 8: temporal stability of buddy traffic",
        defaults=_fig8_defaults,
        expand=_per_benchmark_expand,
        run_point=_fig8_point,
        aggregate=_keyed_by_benchmark,
        format=_fig8_format,
        salt_modules=_COMPRESSION_STUDY_MODULES,
        plan_point=_buddy_pipeline_plan,
    )
)


def _fig9_defaults() -> dict:
    from repro.workloads.snapshots import SnapshotConfig

    return {
        "benchmarks": _benchmark_names(),
        "thresholds": (0.10, 0.20, 0.30, 0.40),
        "config": SnapshotConfig(),
    }


def _fig9_point(point: dict):
    from repro.analysis.compression_study import fig9_benchmark

    return fig9_benchmark(
        point["benchmark"], point["thresholds"], point["config"]
    )


def _fig9_format(sweep) -> str:
    thresholds = sorted(next(iter(sweep.values())))
    lines = [f"{'benchmark':14s} " + " ".join(f"t={t:.2f}" for t in thresholds)]
    for name, runs in sweep.items():
        cells = " ".join(f"{runs[t].compression_ratio:6.2f}" for t in thresholds)
        lines.append(f"{name:14s} {cells}")
    return "\n".join(lines)


register(
    Experiment(
        name="compression.fig9",
        title="Fig. 9: Buddy Threshold sweep",
        defaults=_fig9_defaults,
        expand=_per_benchmark_expand,
        run_point=_fig9_point,
        aggregate=_keyed_by_benchmark,
        format=_fig9_format,
        salt_modules=_COMPRESSION_STUDY_MODULES,
        plan_point=_buddy_pipeline_plan,
    )
)


# ---------------------------------------------------------------------------
# metadata.fig5b
# ---------------------------------------------------------------------------
def _fig5b_defaults() -> dict:
    from repro.analysis.metadata_study import DEFAULT_SIZES
    from repro.workloads.snapshots import SnapshotConfig
    from repro.workloads.traces import TraceConfig

    return {
        "benchmarks": _benchmark_names(),
        "sizes": DEFAULT_SIZES,
        "trace_config": TraceConfig(
            snapshot_config=SnapshotConfig(scale=1.0 / 2048)
        ),
    }


def _fig5b_point(point: dict):
    from repro.analysis.metadata_study import metadata_row

    return metadata_row(point["benchmark"], point["sizes"], point["trace_config"])


def _fig5b_plan(point: dict) -> list:
    from repro.analysis.metadata_study import fig5b_plan

    return fig5b_plan(point)


def _fig5b_format(rows) -> str:
    from repro.analysis.metadata_study import format_metadata_table

    return format_metadata_table(rows)


register(
    Experiment(
        name="metadata.fig5b",
        title="Fig. 5b: metadata-cache hit rate vs capacity",
        defaults=_fig5b_defaults,
        expand=_per_benchmark_expand,
        run_point=_fig5b_point,
        aggregate=_as_list,
        format=_fig5b_format,
        salt_modules=_SUBSTRATE_MODULES
        + (
            "repro.analysis.metadata_study",
            "repro.compression.base",
            "repro.compression.bitio",
            "repro.compression.bpc",
            "repro.compression.sectors",
            "repro.core.entry",
            "repro.core.histogram",
            "repro.core.metadata_cache",
            "repro.core.profile_tensor",
            "repro.core.profiler",
            "repro.gpusim.trace",
            "repro.workloads.traces",
        ),
        plan_point=_fig5b_plan,
    )
)


# ---------------------------------------------------------------------------
# correlation.fig10
# ---------------------------------------------------------------------------
def _fig10_defaults() -> dict:
    from repro.analysis.correlation_study import DEFAULT_BENCHMARKS

    return {
        "benchmarks": DEFAULT_BENCHMARKS,
        "instruction_scales": (6, 18),
        "sm_count": 4,
        "warps_per_sm": 6,
        "engine": "vectorized",
        "verify": 0.0,
    }


def _fig10_expand(params: dict) -> list[dict]:
    return [
        {
            "benchmark": name,
            "memory_instructions": scale,
            "sm_count": params["sm_count"],
            "warps_per_sm": params["warps_per_sm"],
            "engine": params["engine"],
            "verify": params["verify"],
        }
        for name in params["benchmarks"]
        for scale in params["instruction_scales"]
    ]


def _fig10_point(point: dict):
    from repro.analysis.correlation_study import correlation_point

    return correlation_point(
        point["benchmark"],
        point["memory_instructions"],
        point["sm_count"],
        point["warps_per_sm"],
        point["engine"],
        point["verify"],
    )


def _fig10_aggregate(results: list, params: dict):
    from repro.analysis.correlation_study import CorrelationResult

    return CorrelationResult(list(results))


def _fig10_plan(point: dict) -> list:
    from repro.analysis.correlation_study import fig10_plan

    return fig10_plan(point)


def _fig10_format(result) -> str:
    return (
        f"correlation (log cycles): {result.correlation:.3f} "
        f"(paper {paper.FIG10_CORRELATION})\n"
        f"fast-vs-reference wall-clock ratio: {result.mean_speed_ratio:.0f}x"
    )


register(
    Experiment(
        name="correlation.fig10",
        title="Fig. 10: fast-vs-reference simulator correlation",
        defaults=_fig10_defaults,
        expand=_fig10_expand,
        run_point=_fig10_point,
        aggregate=_fig10_aggregate,
        format=_fig10_format,
        salt_modules=_SIMULATOR_MODULES
        + (
            "repro.analysis.correlation_study",
            "repro.gpusim.reference",
        ),
        plan_point=_fig10_plan,
    )
)


# ---------------------------------------------------------------------------
# perf.fig11
# ---------------------------------------------------------------------------
def _fig11_defaults() -> dict:
    from repro.analysis.perf_study import LINK_SWEEP
    from repro.gpusim.config import scaled_config
    from repro.workloads.snapshots import SnapshotConfig
    from repro.workloads.traces import TraceConfig

    config = scaled_config()
    return {
        "benchmarks": _benchmark_names(),
        "config": config,
        "trace_config": TraceConfig(
            sm_count=config.sm_count, warps_per_sm=config.warps_per_sm
        ),
        "link_sweep": LINK_SWEEP,
        "profile_config": SnapshotConfig(scale=1.0 / 65536),
        "engine": "vectorized",
        "verify": 0.0,
    }


def _fig11_point(point: dict):
    from repro.analysis.perf_study import perf_benchmark_row

    return perf_benchmark_row(
        point["benchmark"],
        point["config"],
        point["trace_config"],
        point["link_sweep"],
        point["profile_config"],
        point["engine"],
        point["verify"],
    )


def _fig11_aggregate(results: list, params: dict):
    from repro.analysis.perf_study import PerfStudyResult

    return PerfStudyResult(list(results))


def _fig11_plan(point: dict) -> list:
    from repro.analysis.perf_study import fig11_plan

    return fig11_plan(point)


def _fig11_format(result) -> str:
    from repro.analysis.perf_study import format_perf_table

    return format_perf_table(result)


register(
    Experiment(
        name="perf.fig11",
        title="Fig. 11: performance vs ideal large-memory GPU",
        defaults=_fig11_defaults,
        expand=_per_benchmark_expand,
        run_point=_fig11_point,
        aggregate=_fig11_aggregate,
        format=_fig11_format,
        salt_modules=_SIMULATOR_MODULES
        + _PIPELINE_MODULES
        + ("repro.analysis.perf_study",),
        plan_point=_fig11_plan,
    )
)


# ---------------------------------------------------------------------------
# um.fig12
# ---------------------------------------------------------------------------
def _fig12_defaults() -> dict:
    from repro.analysis.um_study import FIG12_BENCHMARKS, FIG12_LEVELS
    from repro.um.oversubscription import UMConfig

    return {
        "benchmarks": FIG12_BENCHMARKS,
        "levels": FIG12_LEVELS,
        "config": UMConfig(),
    }


def _fig12_point(point: dict):
    from repro.analysis.um_study import um_benchmark_curve

    return um_benchmark_curve(
        point["benchmark"], point["levels"], point["config"]
    )


def _fig12_aggregate(results: list, params: dict) -> list:
    return [row for curve in results for row in curve]


def _fig12_format(rows) -> str:
    from repro.analysis.um_study import format_fig12_table

    return format_fig12_table(rows)


register(
    Experiment(
        name="um.fig12",
        title="Fig. 12: UM oversubscription slowdowns",
        defaults=_fig12_defaults,
        expand=_per_benchmark_expand,
        run_point=_fig12_point,
        aggregate=_fig12_aggregate,
        format=_fig12_format,
        salt_modules=(
            "repro.rng",
            "repro.units",
            "repro.analysis.um_study",
            "repro.um.oversubscription",
            "repro.um.pages",
            "repro.workloads.catalog",
        ),
    )
)


# ---------------------------------------------------------------------------
# dl.ratios / dl.fig13
# ---------------------------------------------------------------------------
def _dl_networks() -> tuple[str, ...]:
    from repro.dlmodel.networks import NETWORK_BUILDERS

    return tuple(NETWORK_BUILDERS)


def _dl_ratio_defaults() -> dict:
    from repro.workloads.snapshots import SnapshotConfig

    return {
        "networks": _dl_networks(),
        "config": SnapshotConfig(scale=1.0 / 65536),
    }


def _dl_expand(params: dict) -> list[dict]:
    return [
        {"network": name, "config": params["config"]}
        for name in params["networks"]
    ]


def _dl_ratio_point(point: dict):
    from repro.analysis.dl_study import network_ratio

    return network_ratio(point["network"], point["config"])


def _dl_ratio_aggregate(results: list, params: dict) -> dict:
    return dict(zip(params["networks"], results))


def _dl_ratio_plan(point: dict) -> list:
    from repro.analysis.dl_study import network_ratio_plan

    return network_ratio_plan(point)


def _dl_ratio_format(ratios) -> str:
    return "\n".join(
        f"{name:14s} {ratio:5.2f}x" for name, ratio in ratios.items()
    )


register(
    Experiment(
        name="dl.ratios",
        title="Per-network buddy compression ratios (Fig. 13 input)",
        defaults=_dl_ratio_defaults,
        expand=_dl_expand,
        run_point=_dl_ratio_point,
        aggregate=_dl_ratio_aggregate,
        format=_dl_ratio_format,
        salt_modules=_PIPELINE_MODULES
        + _DLMODEL_MODULES
        + ("repro.analysis.dl_study",),
        plan_point=_dl_ratio_plan,
    )
)


# ---------------------------------------------------------------------------
# serve.advice
# ---------------------------------------------------------------------------
def _advice_defaults() -> dict:
    from repro.serve.protocol import DEFAULT_THRESHOLDS, DESIGNS
    from repro.workloads.snapshots import SnapshotConfig

    return {
        "benchmarks": _benchmark_names(),
        "codec": "bpc",
        "thresholds": DEFAULT_THRESHOLDS,
        "designs": DESIGNS,
        "config": SnapshotConfig(),
    }


def _advice_point(point: dict):
    from repro.serve.advisor import advice_point

    return advice_point(point)


def _advice_format(results) -> str:
    lines = []
    for name, payload in results.items():
        rec = payload["recommendation"]
        threshold = rec["threshold"]
        threshold_text = "-" if threshold is None else f"{threshold:.2f}"
        lines.append(
            f"{name:14s} {rec['design']:14s} t={threshold_text} "
            f"{rec['compression_ratio']:5.2f}x "
            f"{rec['buddy_entry_fraction']:.2%} buddy entries"
        )
    return "\n".join(lines)


register(
    Experiment(
        name="serve.advice",
        title="Advisor answer: codec/threshold/design per profile",
        defaults=_advice_defaults,
        expand=_per_benchmark_expand,
        run_point=_advice_point,
        aggregate=_keyed_by_benchmark,
        format=_advice_format,
        salt_modules=_PIPELINE_MODULES
        + _CODEC_COMPARISON_MODULES
        + (
            "repro.serve.advisor",
            "repro.serve.protocol",
        ),
    )
)


def _fig13_defaults() -> dict:
    from repro.analysis.dl_study import BATCH_SWEEP

    params = _dl_ratio_defaults()
    params.update({"batches": BATCH_SWEEP, "epochs": 100})
    return params


def _fig13_aggregate(results: list, params: dict):
    from repro.analysis.dl_study import assemble_dl_study

    ratios = dict(zip(params["networks"], results))
    return assemble_dl_study(ratios, params["batches"], params["epochs"])


def _fig13_format(result) -> str:
    from repro.analysis.dl_study import format_dl_tables

    return format_dl_tables(result)


register(
    Experiment(
        name="dl.fig13",
        title="Fig. 13: the DL-training case study",
        defaults=_fig13_defaults,
        expand=_dl_expand,
        run_point=_dl_ratio_point,
        aggregate=_fig13_aggregate,
        format=_fig13_format,
        salt_modules=_PIPELINE_MODULES
        + _DLMODEL_MODULES
        + ("repro.analysis.dl_study",),
        plan_point=_dl_ratio_plan,
    )
)
