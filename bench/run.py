"""The repository benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 bench/run.py --workload design-iterate --seed 1 --seconds 12 --trace 0

The first run in a checkout builds the compiled event core and the
artifact store under ``.bench_build/`` (see ``workloads.py``).  Every
run then sets its workload up several times (``setup_s`` is the
median), measures closed-loop rounds in fresh interpreters for
``--seconds``, checks every output against ``golden.json`` or the
program's one-shot answers, and prints one JSON object as the last
line of standard output.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
Set-ups and rounds are bracketed by machine-speed probes
(:class:`workloads.Calibrator`) and reported in time scaled to a
machine on which one calibration run takes :data:`REFERENCE_PROBE_S`:
the machine this was built on drifts in speed by up to 2x over
minutes, which the scaling cancels and raw seconds do not (the raw
timeline is kept in the ``--json`` record).

``--trace 1`` alternates the rounds of a plain and a traced instance
and reports the per-layer metrics, tracing overhead included.  It
writes a Chrome trace (``trace.json``, open it in Perfetto) and
``layers.json`` to ``.bench_build/trace/<workload>/``.  ``--json PATH``
also writes the result with its environment and per-round samples, the
input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import loadgen
import tracer
from child import load_repro, now_ns
from workloads import (
    WORK,
    WORKERS,
    WORKLOADS,
    AdvisorOpen,
    BenchError,
    Calibrator,
    build_ext,
    build_store,
    source_digest,
)

#: Set-ups per run: at least MIN_SETUPS, then more while their total
#: time stays under SETUP_BUDGET_S, at most MAX_SETUPS.  ``setup_s`` is
#: their median; short set-ups are the noisy ones, so they get the most.
MIN_SETUPS, MAX_SETUPS = 3, 9
SETUP_BUDGET_S = 3.0
#: Timed seconds after which the machine-speed probe runs again.  The
#: speed drifts over tens of seconds, so probing after every short round
#: buys little accuracy and costs run time.
PROBE_EVERY_S = 1.5
#: Fewest plain/traced round pairs of a traced run, for its overhead
#: median (untraced runs use the workload's ``min_rounds``).
MIN_TRACED_PAIRS = 2
#: Median wall seconds of one calibration run (``child.py
#: calibration_work``) on the reference machine: about its median in a
#: calm spell of the two-vCPU VM this benchmark was built on (0.09 s in
#: a slow one).  Times are reported scaled to that machine speed.
REFERENCE_PROBE_S = 0.06


def environment(python_core: bool) -> dict:
    """What a result's numbers depend on besides the code."""
    import numpy as np
    from repro.gpusim import _event_core

    gcc = subprocess.run(["gcc", "-dumpfullversion"], capture_output=True, text=True)
    return {
        "event_core": "python" if python_core else _event_core.describe()["event_core"],
        "event_core_abi": _event_core.EXT_ABI,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "gcc": gcc.stdout.strip(),
    }


def measure(
    workloads: list, seconds: float, setups: int, min_rounds: int, calibrate: bool
) -> list[dict]:
    """Set each workload up (up to ``setups`` times, see
    :data:`SETUP_BUDGET_S`), then alternate their rounds for
    ``seconds``; one sample per workload.

    Each sample keeps a timeline ``events`` of ``(kind, seconds)``:
    every set-up and round, in order.  With ``calibrate``, the
    machine-speed probe runs before the first set-up, after the
    set-ups, after the rounds and between them whenever
    :data:`PROBE_EVERY_S` of timed work has passed, so every timed item
    lies between two ``probe`` events.

    The traced run passes a plain and a traced instance: alternating
    their rounds puts both under the same machine load, so the ratio of
    their round times is the tracing overhead, not drift.  On the
    advisor, the open-loop phase of the last instance follows the
    rounds.
    """
    samples = [{"events": [], "rounds": [], "extra": []} for _ in workloads]
    calibrator = Calibrator(workloads[0].run_dir / "calibrator") if calibrate else None
    unprobed = 0.0

    def timed(sample: dict, kind: str, seconds: float) -> None:
        nonlocal unprobed
        sample["events"].append((kind, seconds))
        unprobed += seconds

    def probe(closing: bool = False) -> None:
        """Probe the machine's speed if due: first, after
        :data:`PROBE_EVERY_S` of timed work, or to close a phase."""
        nonlocal unprobed
        first = not samples[0]["events"]
        if calibrator and (first or unprobed >= PROBE_EVERY_S or (closing and unprobed > 0)):
            seconds = calibrator.probe()
            for sample in samples:
                sample["events"].append(("probe", seconds))
            unprobed = 0.0

    try:
        probe()
        for workload, sample in zip(workloads, samples):
            count, total = 0, 0.0
            while count < min(MIN_SETUPS, setups) or (
                count < setups and total < SETUP_BUDGET_S
            ):
                if count:  # stop what the last set-up started, untimed
                    workload.teardown()
                started = now_ns()
                workload.setup()
                took = (now_ns() - started) / 1e9
                timed(sample, "setup", took)
                count, total = count + 1, total + took
                probe()
        probe(closing=True)
        advisor = isinstance(workloads[-1], AdvisorOpen)
        samples[-1]["window_ns"] = now_ns()
        index, last, spent = 0, 0.0, 0.0
        # Stop before a round that would overrun the budget, so a run
        # measures whole rounds for about ``seconds``.
        while index < min_rounds or spent + last < seconds:
            iteration = now_ns()
            # Alternate which instance goes first, so neither always
            # runs on the cache state the other left behind.
            order = list(zip(workloads, samples))
            for workload, sample in order if index % 2 == 0 else order[::-1]:
                round_ = workload.round(index)
                sample["rounds"].append(round_)
                timed(sample, "round", round_.seconds)
            last = (now_ns() - iteration) / 1e9
            spent += last
            index += 1
            probe()
        probe(closing=True)
        if advisor:
            final, sample = workloads[-1], samples[-1]
            sample["open"], open_round = final.open_phase(sample["rounds"])
            sample["stats"], wrong = final.finish()
            open_round.mismatches += wrong
            open_round.failed += len(wrong)
            sample["extra"].append(open_round)
    finally:
        for workload in workloads:
            workload.teardown()
        if calibrator:
            calibrator.close()
    if advisor:  # one server process answered every round
        for workload, sample in zip(workloads, samples):
            for round_ in sample["rounds"]:
                round_.rss_mb = workload.rss_mb
    return samples


def calibrated(events: list) -> dict[str, list[tuple[float, float]]]:
    """``(seconds, factor)`` of each timed item of a timeline, by kind.
    ``seconds * factor`` is the item's time on a machine on which one
    calibration run takes :data:`REFERENCE_PROBE_S`: the factor comes
    from the mean of the probes just before and after the item."""
    items: dict[str, list[tuple[float, float]]] = {"setup": [], "round": []}
    before, pending = None, []
    for kind, seconds in events:
        if kind != "probe":
            pending.append((kind, seconds))
            continue
        for item, value in pending:
            items[item].append((value, 2 * REFERENCE_PROBE_S / (before + seconds)))
        before, pending = seconds, []
    return items


def end_to_end(sample: dict) -> dict:
    items = calibrated(sample["events"])
    setups = [seconds * factor for seconds, factor in items["setup"]]
    rounds = [seconds * factor for seconds, factor in items["round"]]
    # The tail a user waits on.  On the advisor: each burst's p99
    # request latency, scaled like the burst, and their median, so one
    # burst hit by a machine stall does not set it.  Elsewhere: the
    # slowest round (nearest-rank p99 of a few).
    tails = [
        factor * loadgen.percentile(round_.latencies, 99)
        for round_, (_, factor) in zip(sample["rounds"], items["round"])
        if round_.latencies
    ]
    p99_s = statistics.median(tails) if tails else loadgen.percentile(rounds, 99)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "round_s": (statistics.median(rounds), "s"),
        "p99_ms": (1e3 * p99_s, "ms"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in sample["rounds"]), "MiB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def tally(sample: dict) -> tuple[int, int, list[str]]:
    units = sample["rounds"] + sample["extra"]
    attempted = sum(r.attempted for r in units)
    failed = sum(r.failed for r in units)
    wrong = [m for r in units for m in r.mismatches]
    return attempted, failed, wrong


def record(sample: dict) -> dict:
    """The per-round samples and details kept in ``--json`` output."""
    out = {
        "events": sample["events"],
        "round_rss_mb": [r.rss_mb for r in sample["rounds"]],
        "details": [r.detail for r in sample["rounds"] if r.detail],
    }
    for key in ("open", "stats"):
        if key in sample:
            out[key] = sample[key]
    return out


def run(args) -> int:
    digest = source_digest()
    ext = build_ext(digest)
    store, store_s = build_store(digest, ext)
    load_repro(str(ext))
    run_dir = WORK / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    workload_cls = WORKLOADS[args.workload]
    result: dict = {
        "schema": "bench/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(workload_cls.python_core),
        "build": {"source_digest": digest, "store_build_s": store_s},
    }
    try:
        if args.trace:
            trace_dir = WORK / "trace" / args.workload
            shutil.rmtree(trace_dir, ignore_errors=True)
            spans_dir = trace_dir / "spans"
            spans_dir.mkdir(parents=True)
            samples = measure(
                [
                    workload_cls(args.seed, ext, store, run_dir / "plain"),
                    workload_cls(args.seed, ext, store, run_dir / "traced", spans_dir),
                ],
                args.seconds, 1, MIN_TRACED_PAIRS, calibrate=False,
            )
            plain, traced = samples
            layers = tracer.aggregate(
                spans_dir, traced["window_ns"], traced.get("stats"), WORKERS
            )
            ratios = [t.seconds / p.seconds for p, t in zip(plain["rounds"], traced["rounds"])]
            layers["trace.overhead_pct"] = (100 * (statistics.median(ratios) - 1), "%")
            tracer.write_outputs(trace_dir, layers)
            problems = tracer.coverage_problems(args.workload, layers, min(ratios) - 1)
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in layers.items()
            }
            result["plain"], result["traced"] = record(plain), record(traced)
        else:
            samples = measure(
                [workload_cls(args.seed, ext, store, run_dir)],
                args.seconds, MAX_SETUPS, workload_cls.min_rounds, calibrate=True,
            )
            metrics = end_to_end(samples[0])
            problems = []
            result.update(record(samples[0]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = failed = 0
    wrong: list[str] = []
    for sample in samples:
        a, f, w = tally(sample)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
    for message in wrong + problems:
        print(f"error: {message}", file=sys.stderr)
    outcome = {
        "correct": not wrong and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    result.update(outcome)
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1))
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH", help="also write the full result here")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
