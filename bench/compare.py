"""Compare two sets of benchmark results against the BENCHMARK.json bounds.

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

``A`` is the baseline (the parent commit), ``B`` the candidate; each
file is the ``--json`` output of ``run.py --trace 0``.  For every
(end-to-end metric, workload) pair it prints both sides' median and
quartiles and one verdict:

* ``regressed``  - B's median is worse than A's by more than the bound;
* ``improved``   - B's median is better by more than A's own quartile
  spread and B wins at least nine tenths of the (A_i, B_i) pairs, ties
  counting for neither;
* ``unresolved`` - either side's quartile spread is wider than the
  bound, so the bound cannot be resolved (unless every B run beats
  every A run, which is ``improved``);
* ``unchanged``  - otherwise.

Runs are comparable only on the same machine setup: the environment
blocks (event core, its ABI, Python, NumPy, core count, gcc) must be
identical, or the script refuses.  Exit status: 0, 1 if anything
regressed, 2 on unusable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("event_core", "event_core_abi", "python", "numpy", "nproc", "gcc")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """One (metric, workload) decision; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    worse = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    if max(spread(a), spread(b)) > bound:
        b_beats_all = max(sign * y for y in b) < min(sign * x for x in a)
        return "improved" if b_beats_all else "unresolved"
    if worse > bound:
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    if -worse > spread(a) and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def environment_mismatches(results: list[dict]) -> list[str]:
    """Workloads whose runs disagree on any environment key."""
    seen: dict[str, dict] = {}
    problems = []
    for result in results:
        env = {key: result["env"].get(key) for key in ENV_KEYS}
        first = seen.setdefault(result["workload"], env)
        if env != first:
            diff = {k: (first[k], env[k]) for k in ENV_KEYS if first[k] != env[k]}
            problems.append(f"{result['workload']}: environments differ {diff}")
    return problems


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, A stats, B stats, change, bound, verdict)``."""
    rows = []
    workloads = sorted({r["workload"] for r in a_runs} & {r["workload"] for r in b_runs})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def values(runs):
                return [
                    r["metrics"][name]["value"] for r in runs
                    if r["workload"] == workload and not r.get("trace")
                ]

            a, b = values(a_runs), values(b_runs)
            if not a or not b:
                continue
            change = (quartiles(b)[1] - quartiles(a)[1]) / abs(quartiles(a)[1])
            rows.append(
                (workload, name, quartiles(a), quartiles(b), change, metric["bound"],
                 verdict(a, b, metric["better"], metric["bound"]))
            )
    return rows


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    a_runs = [json.loads(Path(p).read_text()) for p in argv[:split]]
    b_runs = [json.loads(Path(p).read_text()) for p in argv[split + 1:]]
    if not a_runs or not b_runs:
        print("error: need at least one result on each side of --", file=sys.stderr)
        return 2
    problems = environment_mismatches(a_runs + b_runs)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a_runs, b_runs, spec)
    def stats(q) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':15s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    for workload, name, qa, qb, change, bound, label in rows:
        print(
            f"{workload:15s} {name:12s} {stats(qa):>30s} {stats(qb):>30s} "
            f"{100 * change:+7.2f}% {100 * bound:5.0f}%  {label}"
        )
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
