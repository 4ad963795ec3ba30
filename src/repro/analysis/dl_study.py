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
