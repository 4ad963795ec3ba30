"""Child-process entry point of the benchmark: one fresh interpreter.

``run.py`` never measures work inside its own process.  Every round
(and the advisor server) runs here, in a new interpreter, so per-process
memos start cold and start-up cost is part of what is measured::

    python bench/child.py JOB.json

``JOB.json`` names the job (see :data:`JOBS`) and its
arguments.  When the job carries an ``ext`` path, the compiled event
core built by ``run.py`` is loaded as ``repro.gpusim._event_core_ext``
*before* ``repro`` is imported, so the repository's own import-time
selection picks it up; without one the job runs with ``REPRO_NO_EXT``
set by the parent.  When it carries a ``trace_dir``, the span tracer
(``tracer.py``) is installed before any work starts.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fig. 9 / advisor anchor threshold asked in every design-iterate round.
ANCHOR_THRESHOLD = 0.30
#: Fig. 11 anchor link (the relaxed engine's exact reference point).
ANCHOR_LINK = 150.0

#: Request parameters that the experiments expect as tuples.
_TUPLE_PARAMS = ("thresholds", "link_sweep", "benchmarks")


def now_ns() -> int:
    """Machine-wide monotonic clock, comparable across processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def load_repro(ext: str | None) -> None:
    """Put ``src/`` on the path and preload the compiled event core."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if ext is None:
        return
    name = "repro.gpusim._event_core_ext"
    spec = importlib.util.spec_from_file_location(name, ext)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module


def anchors(name: str, value) -> dict:
    """The rows of one sweep result that every round must reproduce.

    Keyed by benchmark, each a digest of the anchor projection: the
    Fig. 9 result at the 0.30 threshold, the advisor's 0.30
    evaluations, and the Fig. 11 quantities the relaxed engine computes
    exactly (ideal cycles, bandwidth-only speedup, buddy at 150 GB/s,
    metadata hit rate).
    """
    from repro.engine.cache import result_digest

    if name == "compression.fig9":
        return {b: result_digest(runs[ANCHOR_THRESHOLD]) for b, runs in value.items()}
    if name == "serve.advice":
        return {
            b: result_digest(
                [e for e in payload["evaluations"] if e["threshold"] == ANCHOR_THRESHOLD]
            )
            for b, payload in value.items()
        }
    if name == "perf.fig11":
        return {
            row.benchmark: result_digest(
                (
                    row.ideal_cycles,
                    row.bandwidth_only,
                    row.buddy[ANCHOR_LINK],
                    row.metadata_hit_rate,
                )
            )
            for row in value.per_benchmark
        }
    return {}


def accuracy(values: dict) -> dict:
    """Paper-accuracy errors (percent) of a whole-paper sweep."""
    from repro.analysis import paper_reference as paper

    fig7 = values["compression.fig7"]
    fig11 = values["perf.fig11"]
    ratio = [
        abs(fig7.suite_summary("final", hpc)[0] / reported[0] - 1)
        for hpc, reported in ((True, paper.FIG7_FINAL_HPC), (False, paper.FIG7_FINAL_DL))
    ]
    perf = [
        abs(fig11.suite_gmean(hpc, "buddy", ANCHOR_LINK) / reported - 1)
        for hpc, reported in (
            (True, paper.FIG11_BUDDY_150_HPC),
            (False, paper.FIG11_BUDDY_150_DL),
        )
    ]
    return {"ratio_err_pct": 100 * max(ratio), "perf_err_pct": 100 * max(perf)}


#: Work counters the program already keeps: name -> (module, function).
COUNTERS = {
    "snapshot_runs": ("repro.workloads.snapshots", "generation_count"),
    "bulk_compression_calls": ("repro.core.profiler", "bulk_compression_call_count"),
    "evaluate_bulk_calls": ("repro.core.controller", "evaluate_bulk_call_count"),
    "tape_recordings": ("repro.gpusim.vector_sim", "tape_recording_count"),
}


def program_counters() -> dict:
    """This process's counters; a module never imported counted nothing
    (reading it must not import it, or tracing would add start-up)."""
    counts = {}
    for key, (module_name, function) in COUNTERS.items():
        module = sys.modules.get(module_name)
        counts[key] = getattr(module, function)() if module is not None else 0
    return counts


def calibration_work() -> int:
    """A fixed mix of interpreter, NumPy and pickle work that never
    touches the code under test."""
    import heapq
    import pickle

    import numpy as np

    heap: list = []
    for i in range(30_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    counts: dict[int, int] = {}
    for i in range(30_000):
        counts[i % 5003] = counts.get(i % 5003, 0) + i
    values = np.random.default_rng(1).integers(0, 1 << 30, size=200_000)
    for _ in range(8):
        values = np.sort((values * 3 + 7) % 1_000_003)
    blob = pickle.dumps([np.arange(40_000) for _ in range(5)])
    for _ in range(5):
        pickle.loads(blob)
    return int(values[-1]) + len(counts)


def job_calibrator(job: dict) -> dict:
    """Each time a line arrives on stdin, time ``reps`` runs of
    :func:`calibration_work` and print their wall seconds as one JSON
    line.  Their median tracks how fast the machine runs right now, so
    round times can be read relative to it (see ``run.py``); a stall
    that hits one run does not move it.  Ends when stdin closes."""
    calibration_work()  # imports and first-touch, before any timing
    for _ in sys.stdin:
        times = []
        for _ in range(job["reps"]):
            started = time.perf_counter()
            calibration_work()
            times.append(time.perf_counter() - started)
        print(json.dumps(times), flush=True)
    return {}


def job_event_core(job: dict) -> dict:
    """Import the package and report which event core is active."""
    from repro.gpusim import _event_core

    return {"event_core": _event_core.describe()}


def job_sweep(job: dict) -> dict:
    """One planned sweep through ``ExperimentRunner.run_sweep``."""
    from repro.engine import ExperimentRunner, ResultCache, result_digest
    from repro.gpusim import _event_core

    requests = []
    for name, params in job["requests"]:
        params = {
            key: tuple(value) if key in _TUPLE_PARAMS else value
            for key, value in params.items()
        }
        requests.append((name, params))
    runner = ExperimentRunner(
        workers=job["workers"], cache=ResultCache(job["cache_dir"])
    )
    entry_ns = _entry()
    sweep = runner.run_sweep(requests)
    names = [name for name, _ in requests]
    values = dict(zip(names, sweep.values))
    execution = sweep.execution
    result = {
        "event_core": _event_core.describe()["event_core"],
        "entry_ns": entry_ns,
        "digests": {name: result_digest(value) for name, value in values.items()},
        "anchors": {name: anchors(name, value) for name, value in values.items()},
        "execution": {
            "snapshot_generations": execution.snapshot_generations,
            "bulk_compression_calls": execution.bulk_compression_calls,
            "tape_recordings": execution.tape_recordings,
        },
    }
    if "compression.fig7" in values and "perf.fig11" in values:
        result["accuracy"] = accuracy(values)
    return result


def job_serve(job: dict) -> dict:
    """``repro serve`` until interrupted (SIGINT stops it gracefully)."""
    from repro.cli import main

    _entry()
    return {"exit": main(["serve", *job["argv"]])}


def _entry() -> int:
    """Note the first entry-point call (the end of interpreter start-up)."""
    entry_ns = now_ns()
    tracer = sys.modules.get("tracer")
    if tracer is not None:
        tracer.mark_entry(entry_ns)
    return entry_ns


JOBS = {
    "calibrator": job_calibrator,
    "event-core": job_event_core,
    "sweep": job_sweep,
    "serve": job_serve,
}


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[0]).read_text())
    load_repro(job.get("ext"))
    tracer = None
    if job.get("trace_dir"):
        import tracer

        tracer.install(job["trace_dir"], job.get("rid", 0), job.get("spawn_ns"))
    result = JOBS[job["job"]](job)
    if tracer is not None:
        tracer.flush()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
