"""Fig. 11: performance relative to an ideal large-memory GPU.

Sweeps bandwidth-only compression and Buddy Compression across
interconnect bandwidths of 50/100/150/200 GB/s on all 16 benchmarks.

The sweep runs on any of the three simulator engines (``--engine``
axis below): the default vectorized batched-event core, the relaxed
frozen-order tape engine, or the per-access legacy oracle.
Vectorized and legacy produce identical datasets (the equivalence
tests pin it); the relaxed engine is exact at the 150 GB/s reference
interconnect and tolerance-pinned elsewhere
(``tests/test_relaxed_sim.py``).  The speedup test at the bottom
measures the wall-clock gap on the sweep's simulation hot path and
asserts each fast engine's advantage — including the compiled event
core's ≥2× floor over the pure-Python core when the extension is
built.  Pass ``--json PATH`` to write the measured numbers as a
trajectory artifact (see ``benchmarks/conftest.py``).
"""

import time

import pytest

from repro.analysis import paper_reference as paper
from repro.analysis.perf_study import (
    LINK_SWEEP,
    format_perf_table,
    run_perf_study,
)
from repro.workloads.traces import TraceConfig

#: Shorter traces than the analysis default keep the bench quick while
#: preserving the steady-state balance.
TRACE = TraceConfig(memory_instructions_per_warp=64)

#: Benchmarks used by the engine speed comparison (a spread of access
#: patterns: streaming DL, random gather, stencil, latency-bound).
SPEEDUP_BENCHMARKS = ("VGG16", "354.cg", "370.bt", "FF_Lulesh")


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["vectorized", "relaxed", "legacy"])
def test_fig11_performance(benchmark, runner, engine):
    result = benchmark.pedantic(
        run_perf_study,
        kwargs={"trace_config": TRACE, "runner": runner, "engine_spec": engine},
        rounds=1,
        iterations=1,
    )
    print()
    print(format_perf_table(result))
    bw = result.overall_gmean("bandwidth")
    buddy150 = result.overall_gmean("buddy", 150.0)
    print(f"bandwidth-only gmean {bw:.3f} (paper {paper.FIG11_BANDWIDTH_ONLY_MEAN})")
    print(f"buddy@150 gmean {buddy150:.3f} (paper ~0.98)")

    rows = {r.benchmark: r for r in result.per_benchmark}

    # bandwidth-only compression: modest overall gain, led by DL
    assert 1.0 < bw < 1.12
    assert result.suite_gmean(False, "bandwidth") > result.suite_gmean(True, "bandwidth")
    # the paper's bandwidth-compression losers slow down (FF_Lulesh's
    # decompression-latency penalty leaves it at best break-even)
    assert rows["354.cg"].bandwidth_only < 1.0
    assert rows["360.ilbdc"].bandwidth_only < 1.0
    assert rows["FF_Lulesh"].bandwidth_only < 1.02

    # Buddy costs on top of bandwidth compression
    for name in ("AlexNet", "VGG16", "351.palm", "355.seismic"):
        assert rows[name].buddy[150.0] < rows[name].bandwidth_only
    # metadata-cache victims (the paper: 351.palm, 355.seismic)
    assert rows["351.palm"].metadata_hit_rate < 0.93
    assert rows["355.seismic"].metadata_hit_rate < 0.93
    # AlexNet: the highest DL buddy traffic and worse at 50 GB/s
    assert rows["AlexNet"].buddy_access_fraction > 0.05
    assert rows["AlexNet"].buddy[50.0] <= rows["AlexNet"].buddy[150.0]
    # overall: buddy within a few percent of ideal at NVLink2 speeds
    assert 0.95 < buddy150 < 1.08
    assert 0.95 < result.suite_gmean(True, "buddy", 150.0) < 1.05


@pytest.mark.slow
def test_fig11_engine_speedup(benchmark, bench_json):
    """The fast cores' wall-clock advantage on the Fig. 11 grid.

    Measures the sweep's simulation hot path — every (mode, link)
    point of several benchmarks, traces and compression states
    prepared once and shared — for all three engines, asserts the
    equivalence contracts, and pins the speedup floors.  The first
    vectorized pass is fully cold (it performs the whole column
    resolution), so its *cold* ratio is what a fresh single-shot
    sweep sees and the assertion uses it — a column-build regression
    cannot hide behind the memo.  The first relaxed pass runs after
    vectorized has warmed the shared column memos, so its "cold"
    ratio isolates the tape recording + replay cost on top of warm
    columns; the relaxed assertion uses the *warm* (best-of-3) ratio,
    because amortising the one exact-order recording across the link
    sweep is exactly that engine's architecture.

    When the compiled event core is active, one extra vectorized leg
    runs under ``_event_core.force_python()`` and the compiled build
    must beat the pure-Python build by ≥2× warm — the tentpole claim
    of the compiled core, measured on the same grid in the same
    process.  On a fallback-only install the leg is skipped and the
    original floors stand unchanged.
    """
    from repro.core.controller import BuddyCompressor, BuddyConfig
    from repro.core.targets import FINAL
    from repro.gpusim import (
        REFERENCE_LINK_GBPS,
        CompressionMode,
        CompressionState,
        DependencyDrivenSimulator,
        check_relaxed_contract,
        scaled_config,
    )
    from repro.gpusim import _event_core
    from repro.workloads.snapshots import SnapshotConfig
    from repro.workloads.traces import generate_trace, layout_state

    config = scaled_config()
    trace_config = TraceConfig(
        sm_count=config.sm_count,
        warps_per_sm=config.warps_per_sm,
        memory_instructions_per_warp=64,
    )
    compressor = BuddyCompressor(
        BuddyConfig(snapshot_config=SnapshotConfig(scale=1.0 / 65536))
    )
    grid = []
    for name in SPEEDUP_BENCHMARKS:
        trace = generate_trace(name, trace_config)
        layout = layout_state(name, trace_config)
        selection = compressor.select(compressor.profile(name), FINAL)
        states = [
            (config, CompressionState.ideal(trace.footprint_bytes)),
            (
                config,
                CompressionState.from_entry_state(
                    layout, selection, CompressionMode.BANDWIDTH
                ),
            ),
        ]
        buddy = CompressionState.from_entry_state(
            layout, selection, CompressionMode.BUDDY
        )
        states += [(config.with_link(link), buddy) for link in LINK_SWEEP]
        grid.append((trace, states))

    def sweep(engine):
        results = []
        start = time.perf_counter()
        for trace, states in grid:
            for machine, state in states:
                results.append(
                    DependencyDrivenSimulator(machine, engine).run(
                        trace, state
                    )
                )
        return time.perf_counter() - start, results

    def run():
        # Alternate engines over three passes, so a noisy neighbour
        # cannot skew any side.  Pass 0 of the vectorized engine is
        # fully cold (whole column resolution); pass 0 of the relaxed
        # engine records its tapes over the columns vectorized just
        # warmed.
        times = {"legacy": [], "vectorized": [], "relaxed": [], "python-core": []}
        results = {}
        for _ in range(3):
            for engine in ("legacy", "vectorized", "relaxed"):
                seconds, engine_results = sweep(engine)
                times[engine].append(seconds)
                results[engine] = engine_results
            if _event_core.compiled_active():
                # The compiled core's own leg: the same vectorized
                # sweep forced onto the pure-Python event loop, over
                # the columns the compiled pass just warmed — the
                # ratio isolates the event loop itself.
                with _event_core.force_python():
                    seconds, engine_results = sweep("vectorized")
                times["python-core"].append(seconds)
                results["python-core"] = engine_results
        return times, results

    times, results = benchmark.pedantic(run, rounds=1, iterations=1)
    legacy_best = min(times["legacy"])
    vector_cold = legacy_best / times["vectorized"][0]
    vector_warm = legacy_best / min(times["vectorized"])
    relaxed_cold = legacy_best / times["relaxed"][0]
    relaxed_warm = legacy_best / min(times["relaxed"])
    print()
    print(
        f"fig11 grid ({len(results['legacy'])} sims): "
        f"legacy {legacy_best:.2f}s, "
        f"vectorized cold {times['vectorized'][0]:.2f}s / "
        f"warm {min(times['vectorized']):.2f}s -> "
        f"{vector_cold:.2f}x cold, {vector_warm:.2f}x warm, "
        f"relaxed cold {times['relaxed'][0]:.2f}s / "
        f"warm {min(times['relaxed']):.2f}s -> "
        f"{relaxed_cold:.2f}x cold, {relaxed_warm:.2f}x warm"
    )

    # The equivalence contracts hold at every grid point: vectorized
    # is bit-identical to the oracle, relaxed is bit-identical at the
    # reference interconnect and tolerance-pinned elsewhere.
    points = [
        machine for _, states in grid for machine, _ in states
    ]
    for machine, legacy_result, vector_result, relaxed_result in zip(
        points, results["legacy"], results["vectorized"], results["relaxed"]
    ):
        assert legacy_result.cycles == vector_result.cycles
        assert legacy_result.dram_bytes == vector_result.dram_bytes
        assert legacy_result.link_bytes == vector_result.link_bytes
        assert legacy_result.buddy_fills == vector_result.buddy_fills
        assert legacy_result.demand_fills == vector_result.demand_fills
        check_relaxed_contract(
            relaxed_result,
            legacy_result,
            exact=machine.link.bandwidth_gbps == REFERENCE_LINK_GBPS,
        )
    # Speedup floors.  Vectorized on the pure-Python core: measured
    # ~2-2.5x cold and ~2.5-3x warm on the development machine; the
    # compiled event core lifts both well past these, and the floors
    # deliberately stay at the fallback's level so a fallback-only
    # install does not regress below today's bar.  Relaxed: measured
    # ~3x cold and ~15-20x warm (one recording per state, replay-only
    # link points); the >=5x floor is the ROADMAP target the
    # exact-order engines could not reach on the Python core.
    # Conservative floors keep the assertions robust on shared CI
    # runners.
    assert vector_cold >= 1.5
    assert vector_warm >= 2.0
    assert relaxed_cold >= 1.2
    assert relaxed_warm >= 5.0

    compiled_warm = None
    if _event_core.compiled_active():
        # The python-core leg ran the identical grid, so equivalence
        # is free to check: the fallback must be bit-identical too.
        for vector_result, python_result in zip(
            results["vectorized"], results["python-core"]
        ):
            assert vector_result.cycles == python_result.cycles
            assert vector_result.link_bytes == python_result.link_bytes
        compiled_warm = min(times["python-core"]) / min(times["vectorized"])
        print(
            f"compiled event core: {compiled_warm:.2f}x over the "
            f"pure-Python core (warm vectorized grid)"
        )
        # The tentpole floor: the compiled exact-order core is >=2x
        # the Python core it transcribes (measured ~4-6x).
        assert compiled_warm >= 2.0

    bench_json.record(
        "fig11_engine_speedup",
        grid_sims=len(results["legacy"]),
        legacy_s=legacy_best,
        vectorized_cold_s=times["vectorized"][0],
        vectorized_warm_s=min(times["vectorized"]),
        relaxed_cold_s=times["relaxed"][0],
        relaxed_warm_s=min(times["relaxed"]),
        vector_cold_x=vector_cold,
        vector_warm_x=vector_warm,
        relaxed_cold_x=relaxed_cold,
        relaxed_warm_x=relaxed_warm,
        python_core_warm_s=(
            min(times["python-core"]) if times["python-core"] else None
        ),
        compiled_over_python_warm_x=compiled_warm,
    )


@pytest.mark.slow
def test_fig11_multi_link_replay_speedup(benchmark, bench_json):
    """One batched multi-link replay vs a loop of one-link replays.

    Records one Fig. 11-geometry buddy tape, then replays a widened
    link sweep two ways: a serial loop of one-pack
    ``replay_tape_many`` calls, and one ``replay_tape_many`` call
    carrying every pack.  Both must return bit-identical cycles per
    link, and — when the compiled event core is active — the batched
    call must beat the loop by ≥2× warm (one pass over the tape
    advances every link's clock state).  On the pure-Python fallback
    the batched call itself loops over the links, sharing only the
    column conversion, so the ratio is only reported.
    """
    from repro.core.controller import BuddyCompressor, BuddyConfig
    from repro.core.targets import FINAL
    from repro.gpusim import (
        REFERENCE_LINK_GBPS,
        CompressionMode,
        CompressionState,
        scaled_config,
    )
    from repro.gpusim import _event_core
    from repro.gpusim.vector_sim import _resolve_tape, _replay_pack, _TAPE_MEMO
    from repro.workloads.snapshots import SnapshotConfig
    from repro.workloads.traces import generate_trace, layout_state

    links = (25.0, 50.0, 75.0, 100.0, 200.0, 300.0, 600.0, 900.0)
    config = scaled_config()
    trace_config = TraceConfig(
        sm_count=config.sm_count,
        warps_per_sm=config.warps_per_sm,
        memory_instructions_per_warp=64,
    )
    compressor = BuddyCompressor(
        BuddyConfig(snapshot_config=SnapshotConfig(scale=1.0 / 65536))
    )
    trace = generate_trace("VGG16", trace_config)
    layout = layout_state("VGG16", trace_config)
    selection = compressor.select(compressor.profile("VGG16"), FINAL)
    state = CompressionState.from_entry_state(
        layout, selection, CompressionMode.BUDDY
    )
    _TAPE_MEMO.pop(trace, None)
    tape, _reference = _resolve_tape(
        trace, state, config.with_link(REFERENCE_LINK_GBPS), need_tape=True
    )
    _TAPE_MEMO.pop(trace, None)

    iscalars = (tape.warp_count, tape.sm_count, tape.channels)
    packs = [_replay_pack(tape, config.with_link(link)) for link in links]

    def run():
        times = {"serial": [], "batched": []}
        cycles = {}
        for _ in range(5):
            start = time.perf_counter()
            cycles["serial"] = tuple(
                _event_core.replay_tape_many(
                    tape.cols, tape.warp_mlp, iscalars, [pack]
                )[0]
                for pack in packs
            )
            times["serial"].append(time.perf_counter() - start)
            start = time.perf_counter()
            cycles["batched"] = tuple(
                _event_core.replay_tape_many(
                    tape.cols, tape.warp_mlp, iscalars, packs
                )
            )
            times["batched"].append(time.perf_counter() - start)
        return times, cycles

    times, cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    assert cycles["batched"] == cycles["serial"]  # bit-identical per link

    serial_warm = min(times["serial"])
    batched_warm = min(times["batched"])
    speedup = serial_warm / batched_warm
    core = "compiled" if _event_core.compiled_active() else "python"
    print()
    print(
        f"multi-link replay ({tape.event_count} events x {len(links)} "
        f"links, {core} core): serial {serial_warm * 1e3:.2f}ms, "
        f"batched {batched_warm * 1e3:.2f}ms -> {speedup:.2f}x"
    )
    if _event_core.compiled_active():
        # One batched pass is >=2x the loop of one-link calls on the
        # compiled core (measured ~2.7x at 8 links on this tape).
        assert speedup >= 2.0

    bench_json.record(
        "fig11_multi_link_replay",
        tape_events=tape.event_count,
        links=len(links),
        serial_warm_s=serial_warm,
        batched_warm_s=batched_warm,
        batched_over_serial_x=speedup,
    )
