#!/usr/bin/env python
"""HPC memory oversubscription: Buddy Compression vs Unified Memory.

Reproduces the paper's Section 4.3 comparison: when a working set
exceeds device memory, UM's fault-driven migration can collapse
(Fig. 12), while Buddy Compression — even over a conservative
50 GB/s interconnect — stays within a small factor of ideal.

The Fig. 12 sweep executes through the :mod:`repro.api` facade (pass
--workers / --cache-dir / --no-cache) and shares its result cache
with ``repro run um.fig12``.
"""

import repro
from repro.analysis.um_study import FIG12_BENCHMARKS
from repro.engine import example_runner
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.config import scaled_config
from repro.gpusim.simulator import DependencyDrivenSimulator
from repro.core.controller import BuddyCompressor
from repro.core.targets import FINAL
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, generate_trace, layout_snapshot


def buddy_slowdown_at_50gbps(benchmark: str) -> float:
    """Slowdown of Buddy Compression vs ideal at a 50 GB/s link."""
    trace_config = TraceConfig(memory_instructions_per_warp=48)
    engine = BuddyCompressor(SnapshotConfig(scale=1.0 / 65536))
    trace = generate_trace(benchmark, trace_config)
    snapshot = layout_snapshot(benchmark, trace_config)
    selection = engine.select(engine.profile(benchmark), FINAL)
    ideal = DependencyDrivenSimulator(scaled_config()).run(
        trace, CompressionState.ideal(trace.footprint_bytes)
    )
    buddy = DependencyDrivenSimulator(scaled_config(link_gbps=50.0)).run(
        trace,
        CompressionState.from_snapshot(snapshot, selection, CompressionMode.BUDDY),
    )
    return buddy.cycles / ideal.cycles


def main() -> None:
    runner = example_runner(description=__doc__)
    print("Unified Memory under forced oversubscription (Fig. 12):")
    print(f"{'benchmark':12s} {'oversub':>8s} {'UM':>8s} {'pinned':>8s}")
    for row in repro.run("um.fig12", runner=runner).value:
        print(
            f"{row.benchmark:12s} {row.oversubscription:8.0%} "
            f"{row.um_slowdown:7.1f}x {row.pinned_slowdown:7.1f}x"
        )

    print("\nBuddy Compression at a conservative 50 GB/s link:")
    for name in FIG12_BENCHMARKS:
        slowdown = buddy_slowdown_at_50gbps(name)
        print(f"  {name:12s} {slowdown:5.2f}x vs ideal "
              "(paper bound: <= 1.67x at 50% oversubscription)")


if __name__ == "__main__":
    main()
