"""Wall-clock floors of the fast paths (``slow``: run with ``-m slow``).

* the Fig. 11 engine speedups, including the compiled event core's
  >=2x over the pure-Python core;
* one batched multi-link tape replay >=2x over a loop of one-link
  replays (compiled core);
* the planned combined Fig. 7 + 9 + 11 sweep >=1.3x over running
  each request alone as its own sweep (no cross-request sharing),
  cold, each side timed in fresh interpreters;
* the advisor service: >=1000 warm requests/second in-process, zero
  below-capacity drops, the coalescing ceiling and warm/cold digest
  parity.

Every test also re-checks the equivalence contract of what it times.
The repo benchmark (``bench/``) measures end-to-end speed; these pin
the per-path floors.  Run ``python tests/test_speed_floors.py
planned|unplanned [workers]`` for one timed combined-sweep pass.
"""

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.perf_study import LINK_SWEEP
from repro.core.controller import BuddyCompressor
from repro.core.targets import FINAL
from repro.engine import ExperimentRunner, result_digest
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.config import scaled_config
from repro.gpusim.simulator import DependencyDrivenSimulator
from repro.gpusim.vector_sim import (
    REFERENCE_LINK_GBPS,
    check_relaxed_contract,
    _TAPE_MEMO,
    _replay_pack,
    _resolve_tape,
)
from repro.gpusim import _event_core
from repro.serve.protocol import AdviceRequest, build_histogram
from repro.serve.server import AdvisorClient, AdvisorServer
from repro.serve.service import AdvisorService, ServiceConfig
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, generate_trace, layout_state
from sim_oracle import run_oracle

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parent.parent


def _fig11_setup(name):
    """Machine, trace, layout and FINAL selection at Fig. 11 geometry."""
    config = scaled_config()
    trace_config = TraceConfig(
        sm_count=config.sm_count,
        warps_per_sm=config.warps_per_sm,
        memory_instructions_per_warp=64,
    )
    compressor = BuddyCompressor(SnapshotConfig(scale=1.0 / 65536))
    selection = compressor.select(compressor.profile(name), FINAL)
    return (
        config,
        generate_trace(name, trace_config),
        layout_state(name, trace_config),
        selection,
    )


def test_fig11_engine_speedup():
    """The fast cores' wall-clock advantage on the Fig. 11 grid.

    Times the sweep's simulation hot path (every (mode, link) point of
    four benchmarks, traces and states prepared once) on both engines
    and the per-access oracle (``sim_oracle.py``, the baseline) over
    three alternating passes.  The first vectorized pass
    is fully cold (whole column resolution), so its *cold* ratio is
    what a fresh sweep sees.  The first relaxed pass records its tapes
    over the columns vectorized just warmed; the relaxed floor uses
    the *warm* ratio, because amortising one recording across the link
    sweep is that engine's architecture.  With the compiled core
    active, one more vectorized leg runs under
    ``_event_core.force_python()`` and the compiled build must beat it
    >=2x warm.
    """
    grid = []
    for name in ("VGG16", "354.cg", "370.bt", "FF_Lulesh"):
        config, trace, layout, selection = _fig11_setup(name)
        buddy = CompressionState.from_entry_state(layout, selection, CompressionMode.BUDDY)
        states = [
            (config, CompressionState.ideal(trace.footprint_bytes)),
            (
                config,
                CompressionState.from_entry_state(
                    layout, selection, CompressionMode.BANDWIDTH
                ),
            ),
        ]
        states += [(config.with_link(link), buddy) for link in LINK_SWEEP]
        grid.append((trace, states))

    def sweep(engine):
        start = time.perf_counter()
        results = [
            run_oracle(machine, trace, state)
            if engine == "oracle"
            else DependencyDrivenSimulator(machine, engine).run(trace, state)
            for trace, states in grid
            for machine, state in states
        ]
        return time.perf_counter() - start, results

    times = {"oracle": [], "vectorized": [], "relaxed": [], "python-core": []}
    results = {}
    for _ in range(3):
        for engine in ("oracle", "vectorized", "relaxed"):
            seconds, results[engine] = sweep(engine)
            times[engine].append(seconds)
        if _event_core.compiled_active():
            # The same vectorized sweep on the pure-Python event loop,
            # over the columns the compiled pass just warmed: the
            # ratio isolates the event loop itself.
            with _event_core.force_python():
                seconds, results["python-core"] = sweep("vectorized")
            times["python-core"].append(seconds)

    # vectorized is bit-identical to the oracle at every grid point;
    # relaxed is exact at the reference link, tolerance-pinned elsewhere
    points = [machine for _, states in grid for machine, _ in states]
    for machine, oracle, vector, relaxed in zip(
        points, results["oracle"], results["vectorized"], results["relaxed"]
    ):
        assert oracle.cycles == vector.cycles
        assert oracle.dram_bytes == vector.dram_bytes
        assert oracle.link_bytes == vector.link_bytes
        assert oracle.buddy_fills == vector.buddy_fills
        assert oracle.demand_fills == vector.demand_fills
        check_relaxed_contract(
            relaxed, oracle, exact=machine.link.bandwidth_gbps == REFERENCE_LINK_GBPS
        )

    # Floors at the pure-Python core's level (vectorized measured
    # ~2-2.5x cold, ~2.5-3x warm; relaxed ~3x cold, ~15-20x warm), so
    # a fallback-only install holds the same bar; conservative for
    # shared CI runners.
    oracle_best = min(times["oracle"])
    assert oracle_best / times["vectorized"][0] >= 1.5
    assert oracle_best / min(times["vectorized"]) >= 2.0
    assert oracle_best / times["relaxed"][0] >= 1.2
    assert oracle_best / min(times["relaxed"]) >= 5.0

    if _event_core.compiled_active():
        for vector, python in zip(results["vectorized"], results["python-core"]):
            assert vector.cycles == python.cycles
            assert vector.link_bytes == python.link_bytes
        # the compiled core is >=2x the Python core it transcribes
        assert min(times["python-core"]) / min(times["vectorized"]) >= 2.0


def test_fig11_multi_link_replay_speedup():
    """One batched multi-link replay vs a loop of one-link replays.

    Records one Fig. 11-geometry buddy tape, then replays eight links
    both ways.  Cycles must agree per link; on the compiled core the
    batched call (one pass over the tape advances every link's clock)
    must be >=2x the loop.  The fallback's batched call loops over the
    links itself, so there the ratio is not floored.
    """
    config, trace, layout, selection = _fig11_setup("VGG16")
    state = CompressionState.from_entry_state(layout, selection, CompressionMode.BUDDY)
    _TAPE_MEMO.pop(trace, None)
    tape, _reference = _resolve_tape(
        trace, state, config.with_link(REFERENCE_LINK_GBPS), need_tape=True
    )
    _TAPE_MEMO.pop(trace, None)

    iscalars = (tape.warp_count, tape.sm_count, tape.channels)
    links = (25.0, 50.0, 75.0, 100.0, 200.0, 300.0, 600.0, 900.0)
    packs = [_replay_pack(tape, config.with_link(link)) for link in links]

    def replay(batch):
        return _event_core.replay_tape_many(tape.cols, tape.warp_mlp, iscalars, batch)

    times = {"serial": [], "batched": []}
    for _ in range(5):
        start = time.perf_counter()
        serial = tuple(replay([pack])[0] for pack in packs)
        times["serial"].append(time.perf_counter() - start)
        start = time.perf_counter()
        batched = tuple(replay(packs))
        times["batched"].append(time.perf_counter() - start)
    assert batched == serial  # bit-identical per link
    if _event_core.compiled_active():
        # measured ~2.7x at 8 links on this tape
        assert min(times["serial"]) / min(times["batched"]) >= 2.0


# --- The planned combined sweep ---------------------------------------------
#: A mixed HPC/DL spread; scale and trace length chosen so the shared
#: profile work and the per-point simulation both weigh in.
SWEEP_BENCHMARKS = ("354.cg", "370.bt", "FF_HPGMG", "AlexNet", "SqueezeNet", "VGG16")
SWEEP_WORKERS = 4
MIN_PLANNED_SPEEDUP = 1.3
SWEEP_ROUNDS = 2  # cold interpreters per side; best-of damps machine noise


def _sweep_requests():
    config = SnapshotConfig(scale=1.0 / 16384)
    machine = scaled_config()
    trace_config = TraceConfig(
        memory_instructions_per_warp=32,
        sm_count=machine.sm_count,
        warps_per_sm=machine.warps_per_sm,
    )
    return [
        ("compression.fig7", {"benchmarks": SWEEP_BENCHMARKS, "config": config}),
        ("compression.fig9", {"benchmarks": SWEEP_BENCHMARKS, "config": config}),
        (
            "perf.fig11",
            {
                "benchmarks": SWEEP_BENCHMARKS,
                "trace_config": trace_config,
                "profile_config": config,
            },
        ),
    ]


def _sweep_child(mode: str, workers: int) -> None:
    """One timed cold pass in this (fresh) interpreter; prints JSON."""
    requests = _sweep_requests()
    runner = ExperimentRunner(workers=workers, cache=None)
    record = {}
    start = time.perf_counter()
    if mode == "planned":
        result = runner.run_sweep(requests)
        values = result.values
        record["snapshot_generations"] = result.execution.snapshot_generations
        record["max_generations"] = result.execution.max_generations_per_artifact
    else:
        # The baseline: each request alone, as its own one-request
        # sweep, so nothing is shared across requests.
        values = [runner.run(name, params) for name, params in requests]
    record["seconds"] = time.perf_counter() - start
    record["digests"] = [result_digest(value) for value in values]
    print(json.dumps(record))


def _spawn_sweep(mode: str) -> dict:
    """Best-of-``SWEEP_ROUNDS`` cold passes, each in a new interpreter.

    A fork-based pool inherits its parent's memos, so only a fresh
    interpreter measures the genuinely cold path.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    best = None
    for _ in range(SWEEP_ROUNDS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), mode, str(SWEEP_WORKERS)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if best is not None:
            assert record["digests"] == best["digests"], f"{mode} rounds disagree"
        if best is None or record["seconds"] < best["seconds"]:
            best = record
    return best


def test_combined_sweep_planned_speedup():
    planned = _spawn_sweep("planned")
    unplanned = _spawn_sweep("unplanned")
    # bit-identical datasets, per request
    assert planned["digests"] == unplanned["digests"]
    # each benchmark's snapshots generated at most once per config
    # (fig7/9 profile + reference roles, fig11's trace config)
    assert planned["max_generations"] <= 1
    assert planned["snapshot_generations"] <= 3 * len(SWEEP_BENCHMARKS)
    assert unplanned["seconds"] / planned["seconds"] >= MIN_PLANNED_SPEEDUP


# --- The advisor service under load -----------------------------------------
DISTINCT_PROFILES = 64
WARM_REQUESTS = 3000
#: Warm requests over TCP: served and counted, not floored (loopback
#: speed varies more across hosts).
TCP_REQUESTS = 1000
MIN_WARM_PER_SEC = 1000.0


def _synthetic_request(seed: int):
    """One deterministic synthetic allocation profile."""
    rng = np.random.default_rng(seed)
    allocations, snapshots = 3, 4
    counts = rng.integers(0, 50, size=(allocations, snapshots, 4))
    zero_fit = rng.integers(0, counts[:, :, 0] + 1)
    fractions = rng.uniform(0.05, 1.0, size=allocations)
    names = tuple(f"alloc{i}" for i in range(allocations))
    return AdviceRequest(
        histogram=build_histogram(f"synthetic-{seed}", names, fractions, counts, zero_fit)
    )


def test_advisor_service_load():
    """A cold burst of distinct profiles, a warm in-process phase over
    the hot cache, then a warm phase over TCP."""
    config = ServiceConfig(max_batch=64, max_delay=0.001, max_pending=4096)
    requests = [_synthetic_request(seed) for seed in range(DISTINCT_PROFILES)]

    async def measure():
        async with AdvisorService(config=config) as service:
            cold = await asyncio.gather(*(service.submit(r) for r in requests))
            cold_evaluate_calls = service.bulk_evaluate_calls()
            start = time.perf_counter()
            warm = await asyncio.gather(
                *(
                    service.submit(requests[i % DISTINCT_PROFILES])
                    for i in range(WARM_REQUESTS)
                )
            )
            warm_seconds = time.perf_counter() - start
            async with AdvisorServer(service) as server:
                client = await AdvisorClient.connect(server.host, server.port)
                try:
                    await asyncio.gather(
                        *(
                            client.advise(requests[i % DISTINCT_PROFILES])
                            for i in range(TCP_REQUESTS)
                        )
                    )
                finally:
                    await client.aclose()
            return cold, warm, warm_seconds, cold_evaluate_calls, service.stats_json()

    cold, warm, warm_seconds, cold_evaluate_calls, stats = asyncio.run(measure())
    service = stats["service"]
    # no drops below capacity: every burst fits max_pending
    assert service["rejected"] == 0
    assert service["completed"] == DISTINCT_PROFILES + WARM_REQUESTS + TCP_REQUESTS
    # the cold burst coalesces into ceil(N / max_batch) evaluate calls
    assert cold_evaluate_calls <= -(-DISTINCT_PROFILES // config.max_batch)
    assert stats["bulk_calls"]["profile"] == 0  # histograms need no profiling
    # the hot cache serves the cold answers' bytes
    assert all(
        answer.digest == cold[i % DISTINCT_PROFILES].digest
        for i, answer in enumerate(warm)
    )
    assert WARM_REQUESTS / warm_seconds >= MIN_WARM_PER_SEC


if __name__ == "__main__":
    _sweep_child(
        sys.argv[1] if len(sys.argv) > 1 else "planned",
        int(sys.argv[2]) if len(sys.argv) > 2 else SWEEP_WORKERS,
    )
