"""Fig. 11 driver: performance relative to an ideal large-memory GPU.

For every benchmark, runs the dependency-driven simulator under:

* the ideal (uncompressed, unlimited-capacity) baseline;
* bandwidth-only compression;
* full Buddy Compression at each swept interconnect bandwidth
  (50/100/150/200 GB/s full-duplex, per the paper).

All results are reported as speedup relative to the ideal baseline
with a 150 GB/s interconnect, exactly as the paper normalises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.controller import BuddyCompressor
from repro.core.targets import FINAL
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.config import GPUConfig
from repro.gpusim.simulator import DependencyDrivenSimulator
from repro.gpusim.vector_sim import (
    REFERENCE_LINK_GBPS,
    record_tape,
    replay_links,
    tape_cache_key,
)
from repro.workloads.catalog import get_benchmark
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, layout_state, stored_trace

#: The paper's interconnect sweep (GB/s, unidirectional full-duplex).
LINK_SWEEP = (50.0, 100.0, 150.0, 200.0)


@dataclass
class BenchmarkPerf:
    """Fig. 11 series for one benchmark (speedups vs ideal@150)."""

    benchmark: str
    is_hpc: bool
    ideal_cycles: float
    bandwidth_only: float
    buddy: dict[float, float]
    metadata_hit_rate: float
    buddy_access_fraction: float


@dataclass
class PerfStudyResult:
    """Full Fig. 11 dataset."""

    per_benchmark: list[BenchmarkPerf]

    def suite_gmean(self, hpc: bool, series: str, link: float = 150.0) -> float:
        values = []
        for row in self.per_benchmark:
            if row.is_hpc != hpc:
                continue
            if series == "bandwidth":
                values.append(row.bandwidth_only)
            else:
                values.append(row.buddy[link])
        return float(np.exp(np.mean(np.log(values)))) if values else 0.0

    def overall_gmean(self, series: str, link: float = 150.0) -> float:
        values = []
        for row in self.per_benchmark:
            value = row.bandwidth_only if series == "bandwidth" else row.buddy[link]
            values.append(value)
        return float(np.exp(np.mean(np.log(values))))


def fig11_inputs(
    benchmark: str, trace_config: TraceConfig, profile_config: SnapshotConfig
) -> tuple:
    """A Fig. 11 point's simulator inputs: ``(trace, layout, selection)``.

    The stored trace, the per-entry state behind its layout and the
    FINAL buddy selection over the profile: all artifacts served by
    the process artifact store, so a warm design point generates no
    snapshot and no trace at all.  :func:`perf_benchmark_row`
    simulates on them and :func:`prepare_tape` records from them.
    """
    compressor = BuddyCompressor(profile_config)
    trace = stored_trace(benchmark, trace_config)
    layout = layout_state(benchmark, trace_config)
    selection = compressor.select(compressor.profile(benchmark), FINAL)
    return trace, layout, selection


def perf_benchmark_row(
    benchmark: str,
    config: GPUConfig,
    trace_config: TraceConfig,
    link_sweep,
    profile_config: SnapshotConfig,
    engine: str = "vectorized",
    verify: float = 0.0,
) -> BenchmarkPerf:
    """One benchmark's full Fig. 11 series (the engine's point unit).

    ``engine`` selects the simulator core: ``"vectorized"`` (default)
    is exact — it resolves its accesses once per (trace, state) and
    shares the resolution across the whole link sweep.  ``"relaxed"``
    additionally freezes the event *order* at the 150 GB/s reference
    interconnect and replays it across the sweep: exact at 150 GB/s
    (the row every figure normalises against), tolerance-pinned at
    the other link points, and by far the fastest on warm sweeps (see
    ``docs/engines.md``).  ``verify`` is the relaxed engine's escape
    hatch: the fraction of simulator runs cross-checked against the
    vectorized engine (a breach raises ``RelaxedVerificationError``);
    it must stay 0.0 for ``"vectorized"``.
    """
    trace, layout, selection = fig11_inputs(
        benchmark, trace_config, profile_config
    )
    ideal = DependencyDrivenSimulator(config, engine, verify).run(
        trace, CompressionState.ideal(trace.footprint_bytes)
    )
    bandwidth_state = CompressionState.from_entry_state(
        layout, selection, CompressionMode.BANDWIDTH
    )
    bandwidth = DependencyDrivenSimulator(config, engine, verify).run(
        trace, bandwidth_state
    )

    buddy_state = CompressionState.from_entry_state(
        layout, selection, CompressionMode.BUDDY
    )
    buddy = {}
    meta_hit = 0.0
    if engine == "relaxed":
        # The whole link sweep shares one frozen tape: resolve it once
        # (through the artifact store, where the planner's stage-0
        # recording lands when there is one) and replay every
        # non-reference link in a single batched pass — bit-identical
        # to looping the relaxed simulator over the sweep.
        # Links are sampled for ``verify`` as floats, whatever type the
        # sweep was spelled in.
        key = tape_cache_key(benchmark, trace_config, profile_config, config)
        results = replay_links(
            trace,
            buddy_state,
            config,
            [float(link) for link in link_sweep],
            verify=verify,
            cache_key=key,
        )
        for link, result in zip(link_sweep, results):
            buddy[link] = ideal.cycles / result.cycles
            if link == REFERENCE_LINK_GBPS:
                meta_hit = result.metadata_hit_rate
    else:
        for link in link_sweep:
            result = DependencyDrivenSimulator(
                config.with_link(link), engine, verify
            ).run(trace, buddy_state)
            buddy[link] = ideal.cycles / result.cycles
            if link == REFERENCE_LINK_GBPS:
                # The 150 GB/s row: the paper's normalisation point and
                # the relaxed engine's reference interconnect.
                meta_hit = result.metadata_hit_rate

    return BenchmarkPerf(
        benchmark=benchmark,
        is_hpc=get_benchmark(benchmark).is_hpc,
        ideal_cycles=ideal.cycles,
        bandwidth_only=ideal.cycles / bandwidth.cycles,
        buddy=buddy,
        metadata_hit_rate=meta_hit,
        buddy_access_fraction=buddy_state.buddy_access_fraction(),
    )


def prepare_tape(
    benchmark: str,
    config: GPUConfig,
    trace_config: TraceConfig,
    profile_config: SnapshotConfig,
) -> tuple:
    """Record-or-load the relaxed tape for one Fig. 11 design point.

    The planner's stage-0 tape build: gets the ``(tape, reference)``
    pair from the process artifact store under the key the point's
    :func:`~repro.gpusim.vector_sim.replay_links` call uses — a stored
    tape is loaded, never re-recorded.  Only a miss resolves the
    point's inputs through :func:`fig11_inputs`, as
    :func:`perf_benchmark_row` does, and records; the recording is
    stored under ``sim.tape``, whose ``stores`` count is how the
    planner tells a recording from a load.
    """
    from repro.engine.store import process_store

    def record():
        trace, layout, selection = fig11_inputs(
            benchmark, trace_config, profile_config
        )
        buddy_state = CompressionState.from_entry_state(
            layout, selection, CompressionMode.BUDDY
        )
        return record_tape(trace, buddy_state, config)

    key = tape_cache_key(benchmark, trace_config, profile_config, config)
    return process_store().get_or_build(key, record)


def fig11_plan(point: dict) -> list:
    """Shared dependency graph of one Fig. 11 design point.

    Target selection consumes the profile-role tensor at the (small)
    profiling scale; the trace generator and both compression states
    consume the per-entry state of the layout dump behind the trace
    config.  The trace is a stored artifact (:class:`TraceSpec`): the
    planner generates each distinct trace once, and the point loads
    it.  A relaxed point whose sweep leaves the reference interconnect
    additionally declares its recorded event tape (:class:`TapeSpec`),
    so co-submitted sweeps record each ``(trace, state, geometry)``
    tape once in stage 0.
    """
    from repro.compression.bpc import BPCCompressor
    from repro.engine.planner import (
        EntryStateSpec,
        ProfileTensorSpec,
        TapeSpec,
        TraceSpec,
    )

    benchmark = point["benchmark"]
    trace_config = point["trace_config"]
    profile_config = point["profile_config"].as_profile()
    specs = [
        ProfileTensorSpec(benchmark, profile_config, BPCCompressor()),
        EntryStateSpec(
            benchmark, trace_config.snapshot_config, trace_config.snapshot_index
        ),
        TraceSpec(benchmark, trace_config),
    ]
    if point["engine"] == "relaxed" and any(
        float(link) != REFERENCE_LINK_GBPS for link in point["link_sweep"]
    ):
        specs.append(
            TapeSpec(
                benchmark, trace_config, point["profile_config"], point["config"]
            )
        )
    return specs
