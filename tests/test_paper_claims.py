"""The paper's claims, checked at reduced scale.

One test per paper artefact (Figs. 3, 5b, 6-13, Table 2), the
per-benchmark checks of Figs. 3 and 7 against the class-mix algebra of
``calibration_oracle.py``, and the ablations beyond the paper.  Every
numeric band comes from the claims ledger,
:data:`repro.analysis.paper_reference.CLAIMS`, next to the paper value
it brackets; orderings and monotonicity checks are plain asserts.  Every figure is read from its registered experiment
(``repro run NAME`` prints the same value paper-vs-measured) through
one uncached :class:`~repro.engine.ExperimentRunner` and the
module-scoped ``study`` fixture, which computes each distinct
``(experiment, parameters)`` value once: Fig. 11's vectorized value
also serves Sec. 4.3, and Fig. 3's serves Fig. 9's best-achievable
marker.
"""

import statistics
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.paper_reference import CLAIMS
from repro.analysis.um_study import BUDDY_VS_UM_LEVEL, FIG12_BENCHMARKS
from repro.compression.bdi import BDICompressor
from repro.compression.bpc import BPCCompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.fpc import FPCCompressor
from repro.compression.sectors import free_sizes_for_sizes, sectors_for_sizes
from repro.compression.zeroblock import zero_mask
from repro.core.entry import TargetRatio
from repro.dlmodel.memory import TITAN_XP_BYTES, footprint_bytes, transition_batch
from repro.engine import ExperimentRunner, get_experiment, param_digest
from repro.engine.cache import result_digest
from repro.engine.experiments import suite_gmean
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.config import GPUConfig, scaled_config
from repro.gpusim.simulator import DependencyDrivenSimulator
from repro.units import KIB, MEMORY_ENTRY_BYTES, MIB, SECTOR_BYTES
from repro.workloads.snapshots import SnapshotConfig, generate_snapshot
from repro.workloads.traces import TraceConfig, generate_trace, layout_snapshot
from calibration_oracle import analytic_rows

#: Snapshot scaling for the static (compression) studies.
STATIC = SnapshotConfig(scale=1.0 / 65536)


def low(name):
    return CLAIMS[name].low


def high(name):
    return CLAIMS[name].high


def fig11_params(engine):
    return {
        "trace_config": TraceConfig(memory_instructions_per_warp=64),
        "engine": engine,
    }


#: ``result_digest`` of every value the ``study`` fixture computes,
#: keyed like the fixture's memo, ``(name, param digest)``.  The
#: fixture checks each value against its pin as it computes it, so a
#: value that moves (or a new, unpinned one) fails on both event-core
#: builds; the two ``perf.fig11`` rows are the vectorized engine (also
#: Sec. 4.3's) and the ``slow`` relaxed one, the two ``um.fig12`` rows
#: Fig. 12 and Sec. 4.3's 50 % level.
DIGESTS = {
    ("compression.fig3", "3daabb2b2d1d8ee7dd704da5331ae5c9"): "8ebd509bf179fbb5bdc4878a5c35067b",
    ("metadata.fig5b", "cc0832b1a8f54843ffc8805c18f5f2ab"): "38c623d7df5a4c1b47268057240c5a31",
    ("compression.fig6", "3b5fd0bcdb896c830121774ac52b5cf8"): "8d88e1524d19209d13438fcea669be7a",
    ("compression.fig7", "b772d888cc807ec01212b24ee677edcd"): "c86493299200107c86389d651ee838e6",
    ("compression.fig8", "33850869f322d23b54bd45721e781f3b"): "3d378bd20f9e909c2204de386b852366",
    ("compression.fig9", "349ba6a266d8edaf0d5bad861c4fdfb9"): "4f67d070e9eab59339ab005be7b559a4",
    ("correlation.fig10", "6c622a07a7006c5dff0596e7499aeed7"): "529c0bfe0ca5a8d985fdafe28d475e8a",
    ("perf.fig11", "9c71ed67dc4a9a288494a6883603855b"): "aafcfeb0e812f7e17b059dc5498a10b1",
    ("perf.fig11", "dfe9f93b9eddfa68a29b4378faf968ea"): "8c26ed894439740b3c19a60f353e135d",
    ("um.fig12", "a0984716be8ed68a58ad02cf0bcb73ef"): "b81cf2044373bee106b5b96764a2032d",
    ("um.fig12", "f6c84869cabd058ea1df60da8ab37714"): "bccf264c2644b8a6188aa41b16de359d",
    ("dl.fig13", "b23e78ace5c75b75b588630d9378f755"): "1082cc139a8798d990e76f47ed580a26",
    ("dl.ratios", "947775d4971d71f6a0542deda9337658"): "9822d26f412ebbe7c85486453c204f1b",
    ("serve.advice", "65de51833a9b4d08c7d958bdcdca322e"): "76d1e26dc8902f2553002c06d5a95983",
}


@pytest.fixture(scope="module")
def study():
    """``study(name, params)``: a registered experiment's value,
    memoised on ``(name, param digest)`` of the resolved parameters
    and checked against its :data:`DIGESTS` pin."""
    runner = ExperimentRunner()
    values = {}

    def run(name, params=None):
        resolved = get_experiment(name).resolve_params(params)
        key = (name, param_digest(name, resolved))
        if key not in values:
            value = runner.run(name, params)
            digest = result_digest(value)
            assert DIGESTS.get(key) == digest, f"{key}: digest {digest}"
            values[key] = value
        return values[key]

    return run


def test_fig3_compression_ratios(study):
    rows = study("compression.fig3", {"config": STATIC})
    hpc = suite_gmean(rows, True)
    dl = suite_gmean(rows, False)
    assert low("fig3.hpc_gmean") <= hpc <= high("fig3.hpc_gmean")
    assert low("fig3.dl_gmean") <= dl <= high("fig3.dl_gmean")
    assert hpc > dl
    by_name = {row.benchmark: row for row in rows}
    # 355.seismic starts near-zero and asymptotes toward ~2x
    seismic = by_name["355.seismic"].per_snapshot
    assert seismic[0] > 2 * seismic[-1] and seismic[-1] > low("fig3.seismic_last")
    # 352.ep is the most compressible; 354.cg and 370.bt barely compress
    assert by_name["352.ep"].mean_ratio == max(r.mean_ratio for r in rows)
    assert by_name["354.cg"].mean_ratio < high("fig3.cg_mean")
    assert by_name["370.bt"].mean_ratio < high("fig3.bt_mean")


def test_fig5b_metadata_cache_sweep(study):
    rows = study(
        "metadata.fig5b",
        {
            "benchmarks": (
                "351.palm", "355.seismic", "356.sp", "354.cg", "VGG16",
                "ResNet50", "FF_Lulesh",
            ),
            "trace_config": TraceConfig(
                memory_instructions_per_warp=48,
                snapshot_config=SnapshotConfig(scale=1.0 / 2048),
            ),
        },
    )
    by_name = {row.benchmark: row for row in rows}
    for row in rows:
        rates = [row.hit_rates[s] for s in sorted(row.hit_rates)]
        # hit rate is non-decreasing in capacity (the paper's x-axis)
        assert all(b >= a - 0.02 for a, b in zip(rates, rates[1:]))
    # the paper's low-hit-rate outliers: 351.palm and 355.seismic sit
    # below the streaming workloads at the operating point
    mid = 4 * KIB
    for victim in ("351.palm", "355.seismic"):
        assert by_name[victim].hit_rates[mid] < by_name["VGG16"].hit_rates[mid]
        assert by_name[victim].hit_rates[mid] < by_name["FF_Lulesh"].hit_rates[mid]
    # everything converges toward high hit rates with enough capacity
    assert all(row.hit_rates[64 * KIB] > low("fig5b.hit_64kib") for row in rows)


def test_fig6_spatial_patterns(study):
    maps = study(
        "compression.fig6",
        {"benchmarks": ("356.sp", "FF_HPGMG", "ResNet50", "354.cg"), "config": STATIC},
    )
    # HPC: homogeneous regions -> low within-page variance for most pages
    page_variance = maps["356.sp"].var(axis=1)
    assert float((page_variance < 0.5).mean()) > low("fig6.sp_flat_pages")
    # FF_HPGMG: struct stripes -> strong periodicity inside pages of the
    # leading box_structs region (period 8 entries)
    hpgmg = maps["FF_HPGMG"]
    box = hpgmg[: hpgmg.shape[0] // 3]
    folded = box.reshape(box.shape[0], -1, 8)
    assert (folded == folded[:, :1, :]).mean() > low("fig6.hpgmg_period8")
    # DL: mixed per-entry compressibility -> diverse pages
    assert maps["ResNet50"].var() > low("fig6.resnet_variance")
    # 354.cg: mostly incompressible
    assert float((maps["354.cg"] == 4).mean()) > low("fig6.cg_4_sectors")


def test_fig7_design_points(study):
    designs = study("compression.fig7", {"config": STATIC})
    summary = {
        (design, hpc): designs.suite_summary(design, hpc)
        for design in ("naive", "per-allocation", "final")
        for hpc in (True, False)
    }
    hpc_ratio, hpc_buddy = summary[("final", True)]
    dl_ratio, dl_buddy = summary[("final", False)]
    assert low("fig7.final_hpc_ratio") <= hpc_ratio <= high("fig7.final_hpc_ratio")
    assert low("fig7.final_dl_ratio") <= dl_ratio <= high("fig7.final_dl_ratio")
    assert dl_buddy < high("fig7.final_dl_buddy")
    assert hpc_buddy < high("fig7.final_hpc_buddy")

    # each refinement raises compression and (vs naive) lowers buddy
    # traffic
    for hpc in (True, False):
        naive = summary[("naive", hpc)]
        per_alloc = summary[("per-allocation", hpc)]
        final = summary[("final", hpc)]
        assert naive[0] < per_alloc[0] <= final[0]
        assert naive[1] > final[1]

    # the per-benchmark stories the paper highlights
    results = designs.results
    cg = results["354.cg"]
    assert cg["naive"].compression_ratio == 1.0  # incompressible program-wide
    assert cg["final"].compression_ratio > low("fig7.cg_final_ratio")
    assert results["370.bt"]["final"].compression_ratio > low("fig7.bt_final_ratio")
    ep = results["352.ep"]
    assert ep["final"].compression_ratio > ep["per-allocation"].compression_ratio


# --- The calibration oracle ------------------------------------------------
# tests/calibration_oracle.py computes Fig. 3 and Fig. 7 from the class
# mixes alone.  The tolerances below come from the per-benchmark gaps
# between it and the measured values over all 16 benchmarks at two
# snapshot scales (1/65536, as here, and the default 1/16384).
ORACLE = analytic_rows()
STATIC_MIX = sorted(name for name, row in ORACLE.items() if not row.time_varying)
DRIFTING_MIX = sorted(name for name, row in ORACLE.items() if row.time_varying)

#: Largest measured |gap| 3.19 % (FF_HPGMG; the next is 1.29 %, 370.bt).
FIG3_REL_TOL = 0.04
#: Largest measured |gap| 2.2e-16: targets are whole sectors and the
#: ratio is exact algebra over them, so any gap is a different target.
FIG7_RATIO_REL_TOL = 1e-9
#: Largest measured |gap| 1.07 points (AlexNet at 1/16384; 0.99 here).
FIG7_BUDDY_ABS_TOL = 0.0125


@pytest.mark.parametrize("name", STATIC_MIX)
def test_fig3_ratio_matches_the_oracle(study, name):
    rows = {row.benchmark: row for row in study("compression.fig3", {"config": STATIC})}
    assert rows[name].mean_ratio == pytest.approx(
        ORACLE[name].fig3, rel=FIG3_REL_TOL
    )


@pytest.mark.parametrize("name", DRIFTING_MIX)
def test_fig3_drifting_mix_sits_above_the_run_average(study, name):
    """A known gap, not a tolerance: Fig. 3 averages per-dump ratios,
    and by Jensen's inequality that mean exceeds the ratio of the
    run-averaged mix (355.seismic: 3.36 analytic, 3.72 averaged per
    dump, 3.93 measured)."""
    rows = {row.benchmark: row for row in study("compression.fig3", {"config": STATIC})}
    row = ORACLE[name]
    assert row.fig3 < row.fig3_snapshot_mean < rows[name].mean_ratio


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_fig7_final_design_matches_the_oracle(study, name):
    final = study("compression.fig7", {"config": STATIC}).results[name]["final"]
    row = ORACLE[name]
    assert final.compression_ratio == pytest.approx(
        row.final_ratio, rel=FIG7_RATIO_REL_TOL
    )
    assert final.buddy_access_fraction == pytest.approx(
        row.final_buddy, abs=FIG7_BUDDY_ABS_TOL
    )


def test_fig8_temporal_stability(study):
    results = study("compression.fig8", {"config": STATIC})
    squeeze = results["SqueezeNet"].compression_ratio
    resnet = results["ResNet50"].compression_ratio
    assert low("fig8.squeezenet_ratio") < squeeze < high("fig8.squeezenet_ratio")
    assert low("fig8.resnet50_ratio") < resnet < high("fig8.resnet50_ratio")
    # churn does not move aggregate buddy traffic much over the run
    for result in results.values():
        fractions = [s.entry_fraction for s in result.per_snapshot]
        assert max(fractions) - min(fractions) < high("fig8.buddy_spread")


def test_fig9_threshold_sweep(study):
    thresholds = (0.10, 0.20, 0.30, 0.40)
    sweep = study(
        "compression.fig9",
        {
            "benchmarks": (
                "351.palm", "354.cg", "356.sp", "FF_HPGMG", "AlexNet",
                "ResNet50", "VGG16",
            ),
            "thresholds": thresholds,
            "config": STATIC,
        },
    )
    for runs in sweep.values():
        ratios = [runs[t].compression_ratio for t in thresholds]
        accesses = [runs[t].buddy_access_fraction for t in thresholds]
        # a looser threshold never lowers compression, and buddy
        # accesses grow with it
        assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
        assert all(b >= a - 0.005 for a, b in zip(accesses, accesses[1:]))
        # the threshold bounds realised traffic on the profiled data
        for threshold, fraction in zip(thresholds, accesses):
            assert fraction <= threshold + high("fig9.buddy_over_threshold")

    # HPC accesses stay very low; DL sees the threshold trade-off
    assert sweep["356.sp"][0.30].buddy_access_fraction < high("fig9.sp_buddy_30")
    assert sweep["AlexNet"][0.30].buddy_access_fraction > low("fig9.alexnet_buddy_30")
    # FF_HPGMG's striped structs leave it far from its best-achievable
    # compression at any swept threshold (the paper: needs >80%); its
    # best achievable ratio is its Fig. 3 free-size ratio
    fig3 = {row.benchmark: row for row in study("compression.fig3", {"config": STATIC})}
    hpgmg_best = fig3["FF_HPGMG"].mean_ratio
    assert (
        sweep["FF_HPGMG"][0.40].compression_ratio
        < high("fig9.hpgmg_share_of_best_40") * hpgmg_best
    )


def test_fig10_correlation(study):
    result = study("correlation.fig10")
    # Fig. 10 left: the fast simulator tracks the reference machine
    assert result.correlation > low("fig10.correlation")
    # Fig. 10 right: and is far faster (the gap widens with trace
    # length; these traces are tiny)
    assert result.mean_speed_ratio > low("fig10.speed_ratio")
    # longer traces take more cycles on both machines
    by_bench = {}
    for point in result.points:
        by_bench.setdefault(point.benchmark, []).append(point)
    for points in by_bench.values():
        points.sort(key=lambda p: p.instructions)
        assert points[-1].fast_cycles > points[0].fast_cycles
        assert points[-1].reference_cycles > points[0].reference_cycles


@pytest.mark.parametrize(
    "engine",
    [
        "vectorized",
        pytest.param("relaxed", marks=pytest.mark.slow),
    ],
)
def test_fig11_performance(study, engine):
    result = study("perf.fig11", fig11_params(engine))
    rows = {r.benchmark: r for r in result.per_benchmark}

    # bandwidth-only compression: modest overall gain, led by DL
    bw = result.overall_gmean("bandwidth")
    assert low("fig11.bandwidth_gmean") < bw < high("fig11.bandwidth_gmean")
    assert result.suite_gmean(False, "bandwidth") > result.suite_gmean(True, "bandwidth")
    # the paper's bandwidth-compression losers slow down (FF_Lulesh's
    # decompression-latency penalty leaves it at best break-even)
    assert rows["354.cg"].bandwidth_only < high("fig11.cg_bandwidth")
    assert rows["360.ilbdc"].bandwidth_only < high("fig11.ilbdc_bandwidth")
    assert rows["FF_Lulesh"].bandwidth_only < high("fig11.lulesh_bandwidth")

    # Buddy costs on top of bandwidth compression
    for name in ("AlexNet", "VGG16", "351.palm", "355.seismic"):
        assert rows[name].buddy[150.0] < rows[name].bandwidth_only
    # metadata-cache victims (the paper: 351.palm, 355.seismic)
    assert rows["351.palm"].metadata_hit_rate < high("fig11.palm_metadata_hit")
    assert rows["355.seismic"].metadata_hit_rate < high("fig11.seismic_metadata_hit")
    # AlexNet: the highest DL buddy traffic and worse at 50 GB/s
    assert rows["AlexNet"].buddy_access_fraction > low("fig11.alexnet_buddy")
    assert rows["AlexNet"].buddy[50.0] <= rows["AlexNet"].buddy[150.0]
    # overall: buddy within a few percent of ideal at NVLink2 speeds
    buddy150 = result.overall_gmean("buddy", 150.0)
    hpc150 = result.suite_gmean(True, "buddy", 150.0)
    assert low("fig11.buddy150_gmean") < buddy150 < high("fig11.buddy150_gmean")
    assert low("fig11.buddy150_hpc_gmean") < hpc150 < high("fig11.buddy150_hpc_gmean")


def test_fig12_um_oversubscription(study):
    rows = study("um.fig12")
    by_key = {(r.benchmark, round(r.oversubscription, 2)): r for r in rows}

    # slowdown grows with oversubscription for every benchmark
    for name in ("360.ilbdc", "356.sp", "351.palm"):
        series = [by_key[(name, o)].um_slowdown for o in (0.0, 0.1, 0.2, 0.3, 0.4)]
        assert series[0] == 1.0
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    # 360.ilbdc collapses past its pinned alternative (the paper's
    # headline: UM heuristics often lose to plain pinning)
    ilbdc_40 = by_key[("360.ilbdc", 0.4)]
    assert ilbdc_40.um_slowdown > low("fig12.ilbdc_um_40")
    assert ilbdc_40.um_slowdown > ilbdc_40.pinned_slowdown
    # strided codes degrade far less
    assert by_key[("351.palm", 0.4)].um_slowdown < high("fig12.palm_um_40")
    assert by_key[("356.sp", 0.4)].um_slowdown < high("fig12.sp_um_40")


def test_sec43_buddy_vs_um(study):
    """Sec. 4.3: Buddy at a conservative 50 GB/s stays under 1.67x
    where UM at 50 % oversubscription collapses.  Buddy's slowdown is
    the inverse of its measured Fig. 11 speedup at 50 GB/s."""
    perf = study("perf.fig11", fig11_params("vectorized"))
    speedups = {row.benchmark: row.buddy[50.0] for row in perf.per_benchmark}
    um = study("um.fig12", {"levels": (BUDDY_VS_UM_LEVEL,)})
    assert [row.benchmark for row in um] == list(FIG12_BENCHMARKS)
    for row in um:
        buddy_slowdown = 1.0 / speedups[row.benchmark]
        assert buddy_slowdown < high("fig12.buddy_50pct")
        assert buddy_slowdown < row.um_slowdown


def test_advisor_answers_and_dl_ratios(study):
    """The two experiments no figure test reads, at their defaults:
    pinned like the rest, every advisor answer recommends one of its
    own evaluations, and every DL ratio lies within the 4x carve-out
    cap."""
    for payload in study("serve.advice").values():
        assert payload["recommendation"] in payload["evaluations"]
    ratios = study("dl.ratios")
    assert all(1.0 <= ratio <= 4.0 for ratio in ratios.values())


def test_fig13_dl_case_study(study):
    result = study("dl.fig13")

    # 13a: footprints grow monotonically; AlexNet transitions late
    for row in result.footprints.values():
        values = [row[b] for b in sorted(row)]
        assert all(b > a for a, b in zip(values, values[1:]))
    transition = transition_batch("AlexNet")
    assert low("fig13.alexnet_transition") <= transition <= high("fig13.alexnet_transition")
    for name in ("VGG16", "ResNet50", "Inception_V2", "SqueezeNet"):
        assert transition_batch(name) <= high("fig13.other_transition")
    # VGG16 and BigLSTM cannot fit a 64 mini-batch in 12 GB
    assert footprint_bytes("VGG16", 64) > TITAN_XP_BYTES
    assert footprint_bytes("BigLSTM", 64) > TITAN_XP_BYTES

    # 13b: throughput rises with batch then plateaus
    for speedups in result.throughput_speedups.values():
        ordered = [speedups[b] for b in sorted(speedups)]
        assert all(b >= a - 1e-9 for a, b in zip(ordered, ordered[1:]))
        assert ordered[-1] / ordered[-2] < ordered[1] / ordered[0]  # saturation

    # 13c: mean speedup ~14%, led by the capacity-constrained networks
    mean = result.mean_case_speedup
    assert low("fig13.mean_speedup") < mean < high("fig13.mean_speedup")
    by_name = {row.network: row for row in result.case_study}
    leaders = sorted(result.case_study, key=lambda r: -r.speedup)[:2]
    assert {row.network for row in leaders} == {"VGG16", "BigLSTM"}
    assert by_name["VGG16"].buddy_batch > by_name["VGG16"].baseline_batch

    # 13d: batches 16/32 undershoot the peak accuracy; 64+ reach it,
    # with larger batches converging faster
    final = {batch: float(curve[-1]) for batch, curve in result.accuracy.items()}
    assert final[16] < final[64] - 0.02
    assert final[32] < final[128] - 0.01
    assert abs(final[128] - final[256]) < 0.02
    at_epoch_40 = {b: float(c[39]) for b, c in result.accuracy.items()}
    assert at_epoch_40[256] > at_epoch_40[64]
    # small batches have larger accuracy jitter (batch-norm noise)
    jitter16 = float(np.std(np.diff(result.accuracy[16][60:])))
    jitter256 = float(np.std(np.diff(result.accuracy[256][60:])))
    assert jitter16 > jitter256


def test_table2_parameters():
    config = GPUConfig()
    assert config.sm_count == 56 and config.warps_per_sm == 64
    assert config.schedulers_per_sm == 2
    assert config.l2_bytes == 4 * MIB and config.line_bytes == 128
    assert config.dram_channels == 32
    assert config.dram_bandwidth_gbps == 900.0
    assert config.link.bandwidth_gbps == 150.0
    assert config.decompression_dram_cycles == 11
    # the scaled machine preserves the device:link bandwidth ratio
    scaled = scaled_config()
    assert scaled.dram_bandwidth_gbps / scaled.link.bandwidth_gbps == 6.0


# --- Ablations beyond the paper ---------------------------------------------
ABLATION_BENCHMARKS = ("356.sp", "355.seismic", "ResNet50", "VGG16", "354.cg")


def test_algorithm_ablation():
    """BPC beats BDI, FPC and C-PACK on the homogeneous numeric data
    GPUs hold: the paper's stated reason for choosing it."""
    algorithms = [BPCCompressor(), BDICompressor(), FPCCompressor()]
    cpack = CPackCompressor()
    ratios = {a.name: [] for a in [*algorithms, cpack]}

    def ratio(algorithm, blocks):
        return MEMORY_ENTRY_BYTES / algorithm.compressed_sizes(blocks).mean()

    for name in ABLATION_BENCHMARKS:
        data = generate_snapshot(name, 5, STATIC).stacked_data()
        for algorithm in algorithms:
            ratios[algorithm.name].append(ratio(algorithm, data))
        # C-PACK's word-serial lockstep is the slowest kernel: sample entries
        sample = data[:: max(1, data.shape[0] // 400)]
        ratios[cpack.name].append(ratio(cpack, sample))
    gmeans = {name: statistics.geometric_mean(values) for name, values in ratios.items()}
    assert gmeans["bpc"] > gmeans["bdi"]
    assert gmeans["bpc"] > gmeans["fpc"]
    assert gmeans["bpc"] > gmeans["cpack"]


def test_sector_quantisation_ablation():
    """Free sizes (Fig. 3's optimistic study) vs 32 B sectors (the
    implementable design): quantisation always costs, never gains."""
    bpc = BPCCompressor()
    for name in ABLATION_BENCHMARKS:
        data = generate_snapshot(name, 5, STATIC).stacked_data()
        sizes = bpc.compressed_sizes(data)
        free = free_sizes_for_sizes(sizes, zero_mask(data))
        sectors = sectors_for_sizes(sizes) * SECTOR_BYTES
        raw = data.shape[0] * MEMORY_ENTRY_BYTES
        free_ratio = raw / max(int(free.sum()), 1)
        sector_ratio = raw / max(int(sectors.sum()), 1)
        assert sector_ratio <= free_ratio + 1e-9


def test_decompression_latency_sensitivity():
    """Latency-sensitive FF_Lulesh pays for decompression latency."""
    trace_config = TraceConfig(memory_instructions_per_warp=48)
    trace = generate_trace("FF_Lulesh", trace_config)
    snapshot = layout_snapshot("FF_Lulesh", trace_config)
    selection = {a.name: TargetRatio.X2 for a in snapshot.allocations}
    state = CompressionState.from_snapshot(snapshot, selection, CompressionMode.BANDWIDTH)
    cycles = {
        dram_cycles: DependencyDrivenSimulator(
            replace(scaled_config(), decompression_dram_cycles=dram_cycles)
        ).run(trace, state).cycles
        for dram_cycles in (0, 11, 44)
    }
    assert cycles[11] >= cycles[0]
    assert cycles[44] > cycles[11]
