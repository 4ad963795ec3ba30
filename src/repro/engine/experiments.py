"""Built-in experiments: one per analysis study.

Each experiment names its study's point function and planner hook as
``"module:function"`` references; the study signatures take the
expanded point's keys.  This module declares the parameter spaces,
reducers and text formatters and registers everything.  References
resolve when first called and the callables here import lazily, so
importing the engine or ``repro list`` loads no study module and stays
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

``perf.fig11`` carries an ``engine`` parameter ("vectorized" /
"relaxed", see docs/engines.md) and a ``verify`` fraction (the relaxed
engine's sampled cross-check against the vectorized engine); both are
ordinary cache-key axes, so results produced by different simulator
cores are addressed separately and never mix.  ``correlation.fig10``
has neither: its points run IDEAL-mode traces at the reference
interconnect, where the two engines are the same exact engine.
"""

from __future__ import annotations

from repro.analysis import paper_reference as paper
from repro.engine.registry import Experiment, register

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
def _fig3_defaults() -> dict:
    from repro.workloads.snapshots import SnapshotConfig

    return {"benchmarks": _benchmark_names(), "config": SnapshotConfig()}


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
        run_point="repro.analysis.compression_study:fig3_row",
        aggregate=_as_list,
        format=_fig3_format,
        plan_point="repro.analysis.compression_study:fig3_plan",
    )
)


def _fig6_defaults() -> dict:
    from repro.workloads.snapshots import SnapshotConfig

    return {
        "benchmarks": ("FF_HPGMG", "356.sp", "ResNet50"),
        "snapshot_index": 5,
        "config": SnapshotConfig(),
    }


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
        run_point="repro.analysis.compression_study:fig6_heatmap",
        aggregate=_keyed_by_benchmark,
        format=_fig6_format,
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
        run_point="repro.analysis.compression_study:fig7_benchmark",
        aggregate=_fig7_aggregate,
        format=_fig7_format,
        plan_point="repro.analysis.compression_study:buddy_pipeline_plan",
    )
)


def _fig8_defaults() -> dict:
    from repro.workloads.snapshots import SnapshotConfig

    return {
        "benchmarks": ("ResNet50", "SqueezeNet"),
        "config": SnapshotConfig(),
    }


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
        run_point="repro.analysis.compression_study:fig8_benchmark",
        aggregate=_keyed_by_benchmark,
        format=_fig8_format,
        plan_point="repro.analysis.compression_study:buddy_pipeline_plan",
    )
)


def _fig9_defaults() -> dict:
    from repro.workloads.snapshots import SnapshotConfig

    return {
        "benchmarks": _benchmark_names(),
        "thresholds": (0.10, 0.20, 0.30, 0.40),
        "config": SnapshotConfig(),
    }


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
        run_point="repro.analysis.compression_study:fig9_benchmark",
        aggregate=_keyed_by_benchmark,
        format=_fig9_format,
        plan_point="repro.analysis.compression_study:buddy_pipeline_plan",
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


def _fig5b_format(rows) -> str:
    from repro.units import KIB

    sizes = sorted(next(iter(rows)).hit_rates)
    header = f"{'benchmark':14s} " + " ".join(
        f"{size // KIB:>4d}K" for size in sizes
    )
    lines = [header]
    for row in rows:
        cells = " ".join(f"{row.hit_rates[s]:5.2f}" for s in sizes)
        lines.append(f"{row.benchmark:14s} {cells}")
    return "\n".join(lines)


register(
    Experiment(
        name="metadata.fig5b",
        title="Fig. 5b: metadata-cache hit rate vs capacity",
        defaults=_fig5b_defaults,
        expand=_per_benchmark_expand,
        run_point="repro.analysis.metadata_study:metadata_row",
        aggregate=_as_list,
        format=_fig5b_format,
        plan_point="repro.analysis.metadata_study:fig5b_plan",
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
    }


def _fig10_expand(params: dict) -> list[dict]:
    return [
        {
            "benchmark": name,
            "memory_instructions": scale,
            "sm_count": params["sm_count"],
            "warps_per_sm": params["warps_per_sm"],
        }
        for name in params["benchmarks"]
        for scale in params["instruction_scales"]
    ]


def _fig10_aggregate(results: list, params: dict):
    from repro.analysis.correlation_study import CorrelationResult

    return CorrelationResult(list(results))


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
        run_point="repro.analysis.correlation_study:correlation_point",
        aggregate=_fig10_aggregate,
        format=_fig10_format,
        plan_point="repro.analysis.correlation_study:fig10_plan",
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


def _fig11_aggregate(results: list, params: dict):
    from repro.analysis.perf_study import PerfStudyResult

    return PerfStudyResult(list(results))


def _fig11_format(result) -> str:
    rows = result.per_benchmark
    # The swept links in sweep order, as every row's series holds them.
    link_sweep = list(rows[0].buddy) if rows else []
    header = (
        f"{'benchmark':14s} {'bw-only':>8s} "
        + " ".join(f"bud@{int(l):<3d}" for l in link_sweep)
        + "  meta-hit"
    )
    lines = [header]
    for row in rows:
        buddies = " ".join(f"{row.buddy[l]:7.3f}" for l in link_sweep)
        lines.append(
            f"{row.benchmark:14s} {row.bandwidth_only:8.3f} {buddies}  {row.metadata_hit_rate:7.2f}"
        )
    for label, hpc in (("HPC", True), ("DL", False)):
        buddies = " ".join(
            f"{result.suite_gmean(hpc, 'buddy', l):7.3f}" for l in link_sweep
        )
        lines.append(
            f"{'GMEAN ' + label:14s} {result.suite_gmean(hpc, 'bandwidth'):8.3f} {buddies}"
        )
    return "\n".join(lines)


register(
    Experiment(
        name="perf.fig11",
        title="Fig. 11: performance vs ideal large-memory GPU",
        defaults=_fig11_defaults,
        expand=_per_benchmark_expand,
        run_point="repro.analysis.perf_study:perf_benchmark_row",
        aggregate=_fig11_aggregate,
        format=_fig11_format,
        plan_point="repro.analysis.perf_study:fig11_plan",
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


def _fig12_aggregate(results: list, params: dict) -> list:
    return [row for curve in results for row in curve]


def _fig12_format(rows) -> str:
    lines = [f"{'benchmark':12s} {'oversub':>8s} {'UM':>8s} {'pinned':>8s}"]
    for row in rows:
        lines.append(
            f"{row.benchmark:12s} {row.oversubscription:8.0%} "
            f"{row.um_slowdown:7.1f}x {row.pinned_slowdown:7.1f}x"
        )
    return "\n".join(lines)


register(
    Experiment(
        name="um.fig12",
        title="Fig. 12: UM oversubscription slowdowns",
        defaults=_fig12_defaults,
        expand=_per_benchmark_expand,
        run_point="repro.analysis.um_study:um_benchmark_curve",
        aggregate=_fig12_aggregate,
        format=_fig12_format,
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


def _dl_ratio_aggregate(results: list, params: dict) -> dict:
    return dict(zip(params["networks"], results))


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
        run_point="repro.analysis.dl_study:network_ratio",
        aggregate=_dl_ratio_aggregate,
        format=_dl_ratio_format,
        plan_point="repro.analysis.dl_study:network_ratio_plan",
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
        run_point="repro.serve.advisor:advice_point",
        aggregate=_keyed_by_benchmark,
        format=_advice_format,
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
    lines = ["Fig 13a - footprint (GB) vs mini-batch:"]
    batches = sorted(next(iter(result.footprints.values())))
    header = f"{'network':14s}" + "".join(f"{b:>9d}" for b in batches)
    lines.append(header)
    for name, row in result.footprints.items():
        lines.append(
            f"{name:14s}" + "".join(f"{row[b]:9.2f}" for b in batches)
        )
    lines.append("\nFig 13b - images/s speedup vs batch (relative to 16):")
    lines.append(header)
    for name, row in result.throughput_speedups.items():
        lines.append(
            f"{name:14s}" + "".join(f"{row[b]:9.2f}" for b in batches)
        )
    lines.append("\nFig 13c - Buddy-enabled batch speedups:")
    for row in result.case_study:
        lines.append(
            f"{row.network:14s} ratio {row.compression_ratio:4.2f} "
            f"batch {row.baseline_batch:4d} -> {row.buddy_batch:4d} "
            f"speedup {row.speedup:5.2f}"
        )
    lines.append(f"mean speedup: {result.mean_case_speedup:.2f} (paper 1.14)")
    lines.append("\nFig 13d - final validation accuracy by batch:")
    for batch, curve in result.accuracy.items():
        lines.append(
            f"batch {batch:4d}: final {curve[-1]:.3f} "
            f"(epoch-50 {curve[49]:.3f})"
        )
    return "\n".join(lines)


register(
    Experiment(
        name="dl.fig13",
        title="Fig. 13: the DL-training case study",
        defaults=_fig13_defaults,
        expand=_dl_expand,
        run_point="repro.analysis.dl_study:network_ratio",
        aggregate=_fig13_aggregate,
        format=_fig13_format,
        plan_point="repro.analysis.dl_study:network_ratio_plan",
    )
)
