#!/usr/bin/env python
"""Quickstart: compress a workload's memory with Buddy Compression.

Runs the paper's full static pipeline on one benchmark — profile on a
small dataset, choose per-allocation target ratios under the 30 %
Buddy Threshold (with the 16x zero-page optimisation), then evaluate
compression ratio and buddy-memory traffic on the reference run — and
finally places the allocations into a modelled 12 GB GPU with its 3x
buddy carve-out.

The pipeline executes through the :mod:`repro.api` facade (pass
--workers / --cache-dir / --no-cache), so repeated runs are served
from the same shared result cache as ``repro run`` and
``repro sweep``.
"""

import repro
from repro.core.controller import BuddyCompressor
from repro.core.targets import FINAL, NAIVE
from repro.engine import example_runner
from repro.units import GIB, bytes_to_human
from repro.workloads.snapshots import SnapshotConfig


def main() -> None:
    runner = example_runner(description=__doc__)
    config = SnapshotConfig(scale=1.0 / 65536)
    benchmark = "VGG16"

    print(f"== Buddy Compression on {benchmark} ==")
    outcome = repro.run(
        "compression.fig7",
        {
            "benchmarks": (benchmark,),
            "config": config,
            "designs": (NAIVE, FINAL),
        },
        runner=runner,
    )
    results = outcome.value.results[benchmark]
    print(f"profiled {len(results[FINAL.name].selection)} allocations")

    for design in (NAIVE, FINAL):
        result = results[design.name]
        targets = ", ".join(
            f"{name}={target.value}" for name, target in result.selection.items()
        )
        print(f"\n[{design.name}] targets: {targets}")
        print(f"  compression ratio: {result.compression_ratio:.2f}x")
        print(f"  buddy-memory accesses: {result.buddy_access_fraction:.2%} of entries")

    engine = BuddyCompressor(config)
    allocator = engine.place(
        benchmark, results[FINAL.name].selection, device_capacity=12 * GIB
    )
    print("\nplacement on a 12 GiB GPU (carve-out = 3x device):")
    print(f"  device used: {bytes_to_human(allocator.device_used)}")
    print(f"  carve-out used: {bytes_to_human(allocator.buddy_used)}")
    print(f"  effective capacity: {allocator.effective_capacity_ratio():.2f}x")
    print(f"\n{outcome.report.summary()}")
    print(f"result digest: {outcome.digest}")


if __name__ == "__main__":
    main()
