"""Analytic Fig. 3 / Fig. 7 values straight from the calibration mixes.

The test oracle for :mod:`repro.workloads.calibration`.  It computes,
per benchmark, the Fig. 3 free-size ratio and the buddy design points
(naive and final) from the class-mix algebra alone, using the nominal
class sizes: no generated data, no codec, nothing from
:mod:`repro.core`.  The real studies measure the same quantities from
generated snapshots, so the distance between the two is what the
data generation, the codec and the profiler add on top of the mixes.

``python tests/calibration_oracle.py`` prints the per-benchmark table
and the suite gmeans.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.workloads.calibration import all_specs
from repro.workloads.catalog import get_benchmark

FREE = np.array([0, 8, 32, 64, 96, 128], dtype=float)  # Z C S1 S2 S3 S4
SECTORS = np.array([1, 1, 1, 2, 3, 4], dtype=float)
ZERO_OK = np.array([1, 1, 0, 0, 0, 0], dtype=float)  # fits 8 B slot
THRESHOLD = 0.30
ZERO_TOL = 0.03


class CalibrationRow(NamedTuple):
    """One benchmark's analytic values (buddy shares are fractions)."""

    benchmark: str
    is_hpc: bool
    #: whether any allocation's class mix drifts over the run
    time_varying: bool
    #: 128 B over the run-averaged mix's mean free size
    fig3: float
    #: mean of the per-dump ratios, as Fig. 3 averages its dumps
    fig3_snapshot_mean: float
    naive_ratio: float
    naive_buddy: float
    final_ratio: float
    final_buddy: float


def snapshot_mixes(alloc):
    """The allocation's class mix at each of the run's ten dumps."""
    return np.stack([alloc.mix_at(t / 9).as_array() for t in range(10)])


def choose_target(mix, threshold=THRESHOLD, allow_zero_page=True):
    """Device sectors chosen for an allocation mix (0 == 16x class)."""
    overflow_zero = 1.0 - (mix * ZERO_OK).sum()
    if allow_zero_page and overflow_zero <= ZERO_TOL:
        return 0
    for sectors in (1, 2, 3):
        overflow = mix[SECTORS > sectors].sum()
        if overflow <= threshold:
            return sectors
    return 4


def analytic_row(spec) -> CalibrationRow:
    """The class-mix algebra for one benchmark's calibration spec."""
    fracs = np.array([a.fraction for a in spec.allocations])
    per_dump = np.stack([snapshot_mixes(a) for a in spec.allocations])
    mixes = per_dump.mean(axis=1)
    fig3 = 128.0 / float(fracs @ (mixes @ FREE))
    dump_free = np.einsum("a,atc,c->t", fracs, per_dump, FREE)

    device = np.zeros(len(spec.allocations))
    access = np.zeros(len(spec.allocations))
    for i, mix in enumerate(mixes):
        s = choose_target(mix)
        device[i] = (8 / 128) if s == 0 else s / 4
        if s == 0:
            access[i] = 1.0 - (mix * ZERO_OK).sum()
        else:
            access[i] = mix[SECTORS > s].sum()

    # naive: single conservative program-wide target (no zero page):
    # largest allowed ratio not exceeding the average compressibility,
    # subject to an overflow cap.
    program_mix = fracs @ mixes
    avg_sectors = float(program_mix @ SECTORS)
    s = 4
    for cand in (1, 2, 3):
        overflow = program_mix[SECTORS > cand].sum()
        if cand >= avg_sectors and overflow <= 0.45:
            s = cand
            break
    return CalibrationRow(
        benchmark=spec.benchmark,
        is_hpc=get_benchmark(spec.benchmark).is_hpc,
        time_varying=any(a.end_mix is not None for a in spec.allocations),
        fig3=fig3,
        fig3_snapshot_mean=float(np.mean(128.0 / dump_free)),
        naive_ratio=4.0 / s,
        naive_buddy=float(program_mix[SECTORS > s].sum()) if s < 4 else 0.0,
        final_ratio=1.0 / float(fracs @ device),
        final_buddy=float(fracs @ access),
    )


def analytic_rows() -> dict[str, CalibrationRow]:
    """Every calibrated benchmark's analytic row, by name."""
    return {spec.benchmark: analytic_row(spec) for spec in all_specs()}


def suite_summary(rows, hpc: bool) -> dict[str, float]:
    """Gmean ratios and mean buddy shares over one suite."""
    sel = [row for row in rows if row.is_hpc == hpc]

    def gmean(field):
        return float(np.exp(np.mean([np.log(getattr(r, field)) for r in sel])))

    def mean(field):
        return float(np.mean([getattr(r, field) for r in sel]))

    return {
        "fig3": gmean("fig3"),
        "naive_ratio": gmean("naive_ratio"),
        "naive_buddy": mean("naive_buddy"),
        "final_ratio": gmean("final_ratio"),
        "final_buddy": mean("final_buddy"),
    }


if __name__ == "__main__":
    rows = analytic_rows().values()
    print(f"{'benchmark':14s} {'fig3':>5s} {'nv_r':>5s} {'nv_a%':>6s} {'fin_r':>6s} {'fin_a%':>6s}")
    for r in rows:
        print(
            f"{r.benchmark:14s} {r.fig3:5.2f} {r.naive_ratio:5.2f} "
            f"{100 * r.naive_buddy:6.1f} {r.final_ratio:6.2f} {100 * r.final_buddy:6.2f}"
        )
    for label, hpc in (("HPC", True), ("DL", False)):
        s = suite_summary(rows, hpc)
        print(
            f"GMEAN {label}: fig3 {s['fig3']:.2f} naive {s['naive_ratio']:.2f}/"
            f"{100 * s['naive_buddy']:.1f}% final {s['final_ratio']:.2f}/"
            f"{100 * s['final_buddy']:.2f}%"
        )
