"""Every quantitative claim of the paper, and the bands we hold it to.

The constants are the paper's printed values.  :data:`CLAIMS` is the
ledger: one row per numeric band the reproduction asserts
(``tests/test_paper_claims.py``), next to the paper value it brackets.
Orderings, monotonicity checks and the margins inside them are not
bands; they stay plain asserts in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

# --- Fig. 3: free-size BPC compression ratios -------------------------
FIG3_GMEAN_HPC = 2.51
FIG3_GMEAN_DL = 1.85

# --- Fig. 7: design points (compression ratio, buddy-access fraction) -
FIG7_NAIVE_HPC = (1.57, 0.08)
FIG7_NAIVE_DL = (1.18, 0.32)
FIG7_PER_ALLOCATION_HPC = (1.70, None)  # accesses not reported
FIG7_PER_ALLOCATION_DL = (1.42, None)
FIG7_FINAL_HPC = (1.90, 0.0008)
FIG7_FINAL_DL = (1.50, 0.04)

# --- Fig. 8: temporal stability -----------------------------------------
FIG8_SQUEEZENET_RATIO = 1.49
FIG8_RESNET50_RATIO = 1.64

# --- Fig. 9: buddy-threshold sweep --------------------------------------
FIG9_THRESHOLDS = (0.10, 0.20, 0.30, 0.40)
FIG9_CHOSEN_THRESHOLD = 0.30

# --- Metadata (Sec. 3.2) -------------------------------------------------
METADATA_BITS_PER_ENTRY = 4
METADATA_OVERHEAD_FRACTION = 0.004
PTE_EXTENSION_BITS = 24

# --- Fig. 10: simulator methodology --------------------------------------
FIG10_CORRELATION = 0.989
FIG10_SPEEDUP_VS_CYCLE_ACCURATE = 100.0  # two orders of magnitude

# --- Fig. 11: performance vs ideal ---------------------------------------
FIG11_BANDWIDTH_ONLY_MEAN = 1.055
FIG11_BUDDY_200_MEAN = 1.02
FIG11_BUDDY_150_HPC = 0.99  # "within 1% of ideal"
FIG11_BUDDY_150_DL = 0.978  # "within 2.2% of ideal"
FIG11_ALEXNET_150 = 0.935  # 6.5% slowdown
FIG11_ALEXNET_50 = 0.65  # 35% slowdown
FIG11_BUDDY_50_MEAN_SLOWDOWN = 0.80  # "more than 20% average slowdown"
FIG11_DECOMPRESSION_DRAM_CYCLES = 11

# --- Sec. 4.3: UM comparison ----------------------------------------------
UM_LINK_GBPS = 75.0  # 3 NVLink2 bricks on the Power9 box
BUDDY_MAX_SLOWDOWN_AT_50PCT_OVERSUB = 1.67

# --- Fig. 13: DL case study ------------------------------------------------
FIG13_MEAN_SPEEDUP = 1.14
FIG13_VGG16_SPEEDUP = 1.30
FIG13_BIGLSTM_SPEEDUP = 1.28
FIG13_ALEXNET_TRANSITION_BATCH = 96
FIG13_OTHER_TRANSITION_MAX = 32
FIG13_GOOD_ACCURACY_BATCHES = (64, 128, 256)
FIG13_LOW_ACCURACY_BATCHES = (16, 32)


# --- The claims ledger ------------------------------------------------------
class Claim(NamedTuple):
    """One asserted band: ``low``/``high`` of None leave that side open.

    ``paper`` is None where the paper plots the quantity but prints no
    number for it.  Whether an end is inclusive is the asserting test's.
    """

    figure: str
    metric: str
    paper: float | None
    low: float | None
    high: float | None


CLAIMS: dict[str, Claim] = {
    "fig3.hpc_gmean": Claim("Fig. 3", "HPC gmean free-size ratio", FIG3_GMEAN_HPC, 2.1, 2.9),
    "fig3.dl_gmean": Claim("Fig. 3", "DL gmean free-size ratio", FIG3_GMEAN_DL, 1.5, 2.1),
    "fig3.seismic_last": Claim("Fig. 3", "355.seismic ratio, last dump", None, 1.5, None),
    "fig3.cg_mean": Claim("Fig. 3", "354.cg mean ratio", None, None, 1.3),
    "fig3.bt_mean": Claim("Fig. 3", "370.bt mean ratio", None, None, 1.6),
    "fig5b.hit_64kib": Claim("Fig. 5b", "metadata hit rate at 64 KiB", None, 0.85, None),
    "fig6.sp_flat_pages": Claim(
        "Fig. 6", "356.sp pages with per-entry variance < 0.5", None, 0.55, None
    ),
    "fig6.hpgmg_period8": Claim(
        "Fig. 6", "FF_HPGMG box_structs entries repeating every 8", None, 0.9, None
    ),
    "fig6.resnet_variance": Claim("Fig. 6", "ResNet50 sector-count variance", None, 0.5, None),
    "fig6.cg_4_sectors": Claim("Fig. 6", "354.cg entries needing 4 sectors", None, 0.6, None),
    "fig7.final_hpc_ratio": Claim("Fig. 7", "final HPC ratio", FIG7_FINAL_HPC[0], 1.75, 2.15),
    "fig7.final_dl_ratio": Claim("Fig. 7", "final DL ratio", FIG7_FINAL_DL[0], 1.40, 1.70),
    "fig7.final_hpc_buddy": Claim(
        "Fig. 7", "final HPC buddy-access fraction", FIG7_FINAL_HPC[1], None, 0.02
    ),
    "fig7.final_dl_buddy": Claim(
        "Fig. 7", "final DL buddy-access fraction", FIG7_FINAL_DL[1], None, 0.08
    ),
    "fig7.cg_final_ratio": Claim("Fig. 7", "354.cg final ratio", 1.1, 1.05, None),
    "fig7.bt_final_ratio": Claim("Fig. 7", "370.bt final ratio", 1.3, 1.2, None),
    "fig8.squeezenet_ratio": Claim(
        "Fig. 8", "SqueezeNet ratio", FIG8_SQUEEZENET_RATIO, 1.37, 1.61
    ),
    "fig8.resnet50_ratio": Claim("Fig. 8", "ResNet50 ratio", FIG8_RESNET50_RATIO, 1.52, 1.76),
    "fig8.buddy_spread": Claim(
        "Fig. 8", "buddy-access fraction spread over dumps", None, None, 0.04
    ),
    "fig9.buddy_over_threshold": Claim(
        "Fig. 9", "buddy-access fraction above the threshold", None, None, 0.1
    ),
    "fig9.sp_buddy_30": Claim("Fig. 9", "356.sp buddy-access fraction at 30%", None, None, 0.02),
    "fig9.alexnet_buddy_30": Claim(
        "Fig. 9", "AlexNet buddy-access fraction at 30%", None, 0.02, None
    ),
    "fig9.hpgmg_share_of_best_40": Claim(
        "Fig. 9", "FF_HPGMG ratio at 40% over its best achievable", None, None, 0.85
    ),
    "fig10.correlation": Claim("Fig. 10", "log-cycle correlation", FIG10_CORRELATION, 0.9, None),
    "fig10.speed_ratio": Claim(
        "Fig. 10", "fast-vs-reference wall-clock ratio", FIG10_SPEEDUP_VS_CYCLE_ACCURATE, 3.0, None
    ),
    "fig11.bandwidth_gmean": Claim(
        "Fig. 11", "bandwidth-only gmean", FIG11_BANDWIDTH_ONLY_MEAN, 1.0, 1.12
    ),
    "fig11.cg_bandwidth": Claim("Fig. 11", "354.cg bandwidth-only", None, None, 1.0),
    "fig11.ilbdc_bandwidth": Claim("Fig. 11", "360.ilbdc bandwidth-only", None, None, 1.0),
    "fig11.lulesh_bandwidth": Claim("Fig. 11", "FF_Lulesh bandwidth-only", None, None, 1.02),
    "fig11.palm_metadata_hit": Claim("Fig. 11", "351.palm metadata hit rate", None, None, 0.93),
    "fig11.seismic_metadata_hit": Claim(
        "Fig. 11", "355.seismic metadata hit rate", None, None, 0.93
    ),
    "fig11.alexnet_buddy": Claim("Fig. 11", "AlexNet buddy-access fraction", None, 0.05, None),
    "fig11.buddy150_gmean": Claim("Fig. 11", "buddy gmean at 150 GB/s", 0.98, 0.95, 1.08),
    "fig11.buddy150_hpc_gmean": Claim(
        "Fig. 11", "HPC buddy gmean at 150 GB/s", FIG11_BUDDY_150_HPC, 0.95, 1.05
    ),
    "fig12.ilbdc_um_40": Claim("Fig. 12", "360.ilbdc UM slowdown at 40%", None, 15.0, None),
    "fig12.palm_um_40": Claim("Fig. 12", "351.palm UM slowdown at 40%", None, None, 6.0),
    "fig12.sp_um_40": Claim("Fig. 12", "356.sp UM slowdown at 40%", None, None, 8.0),
    "fig12.buddy_50pct": Claim(
        "Sec. 4.3",
        "Buddy slowdown at 50% oversubscription, 50 GB/s",
        BUDDY_MAX_SLOWDOWN_AT_50PCT_OVERSUB,
        None,
        BUDDY_MAX_SLOWDOWN_AT_50PCT_OVERSUB,
    ),
    "fig13.alexnet_transition": Claim(
        "Fig. 13a", "AlexNet transition batch", FIG13_ALEXNET_TRANSITION_BATCH, 64, 160
    ),
    "fig13.other_transition": Claim(
        "Fig. 13a",
        "other networks' transition batch",
        FIG13_OTHER_TRANSITION_MAX,
        None,
        FIG13_OTHER_TRANSITION_MAX,
    ),
    "fig13.mean_speedup": Claim(
        "Fig. 13c", "mean case-study speedup", FIG13_MEAN_SPEEDUP, 1.05, 1.30
    ),
}
