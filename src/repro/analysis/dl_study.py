"""Fig. 13 driver: the DL-training case study end to end."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.controller import BuddyCompressor
from repro.core.targets import FINAL
from repro.dlmodel.casestudy import CaseStudyRow, buddy_batch_speedups, mean_speedup
from repro.dlmodel.convergence import accuracy_curve
from repro.dlmodel.memory import footprint_bytes
from repro.dlmodel.networks import NETWORK_BUILDERS
from repro.dlmodel.throughput import speedup_vs_batch
from repro.units import GIB
from repro.workloads.snapshots import SnapshotConfig

BATCH_SWEEP = (16, 32, 64, 128, 256)


@dataclass
class DLStudyResult:
    """The four Fig. 13 panels."""

    footprints: dict[str, dict[int, float]]  # GB per (network, batch)
    throughput_speedups: dict[str, dict[int, float]]
    case_study: list[CaseStudyRow]
    accuracy: dict[int, np.ndarray]

    @property
    def mean_case_speedup(self) -> float:
        return mean_speedup(self.case_study)


def network_ratio(network: str, config: SnapshotConfig) -> float:
    """One network's buddy ratio (the engine's point unit)."""
    engine = BuddyCompressor(config)
    return engine.run(network, FINAL).compression_ratio


def network_ratio_plan(point: dict) -> list:
    """Shared dependency graph of one DL-ratio point: the network's
    profile- and reference-role tensors under the Buddy pipeline."""
    from repro.compression.bpc import BPCCompressor
    from repro.engine.planner import ProfileTensorSpec

    network = point["network"]
    config = point["config"]
    algorithm = BPCCompressor()
    return [
        ProfileTensorSpec(network, config.as_profile(), algorithm),
        ProfileTensorSpec(network, config, algorithm),
    ]


def assemble_dl_study(
    ratios: dict[str, float], batches=BATCH_SWEEP, epochs: int = 100
) -> DLStudyResult:
    """Build the four Fig. 13 panels from per-network ratios.

    Panels cover exactly the networks in ``ratios`` so subset runs stay
    consistent across all four panels.
    """
    networks = [name for name in NETWORK_BUILDERS if name in ratios]
    footprints = {
        name: {
            batch: footprint_bytes(name, batch) / GIB for batch in batches
        }
        for name in networks
    }
    speedups = {
        name: speedup_vs_batch(name, batches) for name in networks
    }
    case_study = buddy_batch_speedups(ratios)
    accuracy = {
        batch: accuracy_curve(batch, epochs) for batch in batches
    }
    return DLStudyResult(footprints, speedups, case_study, accuracy)


def format_dl_tables(result: DLStudyResult) -> str:
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
