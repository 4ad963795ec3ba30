"""Fig. 10: simulator correlation and speed.

The paper validates its fast dependency-driven simulator against V100
silicon (correlation 0.989) and shows it runs two orders of magnitude
faster than GPGPUSim.  Our silicon proxy is the cycle-stepped
reference machine: we correlate the two simulators' cycle counts over
the benchmark suite at several trace lengths (log-log, as in the
figure) and measure the wall-clock gap.

Both simulators run the same stored trace
(:func:`repro.workloads.traces.stored_trace`), and trace generation
consumes the cached per-entry layout
(:func:`repro.workloads.traces.layout_state`) rather than a
regenerated memory dump — a design point whose trace and layout are
already in the engine result cache generates neither, which matters
here because every (benchmark, length) pair shares one layout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.compression import CompressionState
from repro.gpusim.config import scaled_config
from repro.gpusim.reference import CycleSteppedReference
from repro.gpusim.simulator import DependencyDrivenSimulator
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, stored_trace

#: A diverse sample across suites and patterns.
DEFAULT_BENCHMARKS = (
    "370.bt", "354.cg", "356.sp", "VGG16", "ResNet50", "FF_Lulesh",
)


@dataclass
class CorrelationPoint:
    benchmark: str
    instructions: int
    fast_cycles: float
    reference_cycles: float
    # Wall-clock measurements vary run to run; marking them volatile
    # keeps them out of engine result digests (cycle counts, which are
    # deterministic, remain covered).
    fast_seconds: float = field(metadata={"volatile": True})
    reference_seconds: float = field(metadata={"volatile": True})


@dataclass
class CorrelationResult:
    points: list[CorrelationPoint]

    @property
    def correlation(self) -> float:
        """Pearson correlation of log cycle counts (Fig. 10 left)."""
        fast = np.log([p.fast_cycles for p in self.points])
        reference = np.log([p.reference_cycles for p in self.points])
        return float(np.corrcoef(fast, reference)[0, 1])

    @property
    def mean_speed_ratio(self) -> float:
        """Wall-clock advantage of the fast simulator (Fig. 10 right)."""
        ratios = [
            p.reference_seconds / max(p.fast_seconds, 1e-9)
            for p in self.points
        ]
        return float(np.mean(ratios))


def correlation_point(
    benchmark: str,
    memory_instructions: int,
    sm_count: int = 4,
    warps_per_sm: int = 6,
) -> CorrelationPoint:
    """Both simulators on one (benchmark, trace length) design point.

    The fast simulator runs its default (vectorized) engine: the
    points are IDEAL-mode traces without host traffic at the reference
    interconnect, where the relaxed engine is provably the same exact
    engine, so an engine choice would only fork cache keys.  Cycle
    counts are deterministic; the wall-clock fields are measured fresh
    on every execution (a cached point keeps the timings of the run
    that produced it).
    """
    config = scaled_config(sm_count=sm_count, warps_per_sm=warps_per_sm)
    trace_config = TraceConfig(
        sm_count=config.sm_count,
        warps_per_sm=config.warps_per_sm,
        memory_instructions_per_warp=memory_instructions,
        snapshot_config=SnapshotConfig(scale=1.0 / 16384),
    )
    trace = stored_trace(benchmark, trace_config)
    state = CompressionState.ideal(trace.footprint_bytes)

    # The *_seconds fields are informational wall-clock measurements
    # (the speed-ratio column of Fig. 10's table); the correlated
    # cycle counts above them stay fully deterministic.
    start = time.perf_counter()  # repro: allow[det-time] informational timing, not a result
    fast = DependencyDrivenSimulator(config).run(trace, state)
    fast_seconds = time.perf_counter() - start  # repro: allow[det-time] informational timing, not a result

    start = time.perf_counter()  # repro: allow[det-time] informational timing, not a result
    reference = CycleSteppedReference(config).run(trace, state)
    reference_seconds = time.perf_counter() - start  # repro: allow[det-time] informational timing, not a result

    return CorrelationPoint(
        benchmark=benchmark,
        instructions=trace.instruction_count,
        fast_cycles=fast.cycles,
        reference_cycles=reference.cycles,
        fast_seconds=fast_seconds,
        reference_seconds=reference_seconds,
    )


def fig10_plan(point: dict) -> list:
    """Shared dependency graph of one Fig. 10 design point.

    Mirrors :func:`correlation_point`'s trace construction exactly:
    every (benchmark, length) pair shares one per-entry layout, so the
    planner builds each benchmark's entry-state tensor once for the
    whole grid.

    The points run the exact engine only and never record a tape — so
    no :class:`~repro.engine.planner.TapeSpec` is declared, and a
    co-submitted fig10+fig11 sweep's tape count is exactly the fig11
    relaxed benchmarks'.
    """
    from repro.engine.planner import EntryStateSpec, TraceSpec

    config = scaled_config(
        sm_count=point["sm_count"], warps_per_sm=point["warps_per_sm"]
    )
    trace_config = TraceConfig(
        sm_count=config.sm_count,
        warps_per_sm=config.warps_per_sm,
        memory_instructions_per_warp=point["memory_instructions"],
        snapshot_config=SnapshotConfig(scale=1.0 / 16384),
    )
    return [
        EntryStateSpec(
            point["benchmark"],
            trace_config.snapshot_config,
            trace_config.snapshot_index,
        ),
        TraceSpec(point["benchmark"], trace_config),
    ]
