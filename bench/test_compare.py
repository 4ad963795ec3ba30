"""Decision rules of ``compare.py``, the probe calibration of ``run.py``
and the load generator's traffic and accounting.

Run with ``python3 -m pytest bench/test_compare.py -q`` from the root
of the checkout.  Everything here is synthetic: no benchmark runs.
"""

import json

import numpy as np
import pytest

import compare
import loadgen
import run
import workloads


def result(workload, value, **env):
    base = {key: "x" for key in compare.ENV_KEYS}
    base.update(env)
    return {"workload": workload, "env": base, "trace": 0,
            "metrics": {"round_s": {"value": value, "unit": "s"}}}


SPEC = {"end_to_end": [{"name": "round_s", "unit": "s", "better": "lower", "bound": 0.10}]}


def test_quartiles_match_statistics_quantiles():
    assert compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert compare.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_same_distribution_is_unchanged():
    a = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(a, list(reversed(a)), "lower", 0.10) == "unchanged"


def test_worse_median_beyond_bound_regresses():
    a = [1.00, 1.01, 0.99, 1.00, 1.00]
    b = [1.15, 1.16, 1.14, 1.15, 1.15]
    assert compare.verdict(a, b, "lower", 0.10) == "regressed"


def test_worse_within_bound_is_unchanged():
    a = [1.00, 1.01, 0.99, 1.00, 1.00]
    b = [1.05, 1.06, 1.04, 1.05, 1.05]
    assert compare.verdict(a, b, "lower", 0.10) == "unchanged"


def test_higher_is_better_flips_direction():
    a = [100.0, 101.0, 99.0, 100.0, 100.0]
    assert compare.verdict(a, [85.0, 86.0, 84.0, 85.0, 85.0], "higher", 0.10) == "regressed"
    assert compare.verdict(a, [120.0, 121.0, 119.0, 120.0, 120.0], "higher", 0.10) == "improved"


def test_improvement_needs_nine_tenths_of_pairs():
    a = [1.00] * 10
    b = [0.90] * 8 + [1.10] * 2  # wins 8 of 10 pairs
    assert compare.verdict(a, b, "lower", 0.30) == "unchanged"
    assert compare.verdict(a, [0.90] * 9 + [1.10], "lower", 0.30) == "improved"


def test_improvement_must_exceed_baseline_spread():
    a = [0.90, 0.95, 1.00, 1.05, 1.10]  # quartile spread 15%
    b = [x - 0.02 for x in a]  # wins every pair by 2%
    assert compare.verdict(a, b, "lower", 0.20) == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    a = [0.7, 1.0, 1.3, 0.8, 1.2]
    b = [0.8, 1.1, 1.4, 0.9, 1.3]
    assert compare.verdict(a, b, "lower", 0.10) == "unresolved"


def test_wide_spread_but_every_run_better_is_improved():
    a = [1.7, 2.0, 2.3, 1.8, 2.2]
    b = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert compare.verdict(a, b, "lower", 0.10) == "improved"


def test_compare_rows_per_workload():
    a = [result("w1", 1.0), result("w1", 1.0), result("w2", 2.0)]
    b = [result("w1", 1.2), result("w1", 1.2), result("w2", 2.0)]
    rows = {row[0]: row for row in compare.compare(a, b, SPEC)}
    assert rows["w1"][-1] == "regressed"
    assert rows["w2"][-1] == "unchanged"
    assert rows["w1"][4] == pytest.approx(0.2)


def test_environment_mismatch_refused():
    runs = [result("w1", 1.0, gcc="12.2.0"), result("w1", 1.0, gcc="13.1.0")]
    assert compare.environment_mismatches(runs)
    assert compare.main([]) == 2
    assert not compare.environment_mismatches([result("w1", 1.0), result("w2", 1.0, numpy="y")])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == 50
    assert loadgen.percentile(values, 99) == 99
    assert loadgen.percentile(values, 100) == 100
    assert loadgen.percentile([5.0], 99) == 5.0


def record(due_ms, sent_ms, recv_ms, ok=True):
    ns = 1_000_000
    return (due_ms * ns, sent_ms * ns, None if recv_ms is None else recv_ms * ns, ok, "d")


def test_open_loop_latency_is_timed_from_due_time():
    # Sent 3 ms late, answered 1 ms after sending: 4 ms from due.
    summary = loadgen.summarize_open([record(0, 3, 4)] * 10, limit_ms=50, fail_ms=1000)
    assert summary["p50_ms"] == pytest.approx(4.0)
    assert summary["lateness_p99_ms"] == pytest.approx(3.0)
    assert summary["valid"]


def test_failed_requests_miss_the_limit():
    records = [record(i, i, i + 1) for i in range(98)] + [record(98, 98, None, False)] * 2
    summary = loadgen.summarize_open(records, limit_ms=50, fail_ms=1000)
    assert summary["failed"] == 2
    assert summary["over_limit"] == 2
    assert summary["p99_ms"] == 1000
    assert summary["p50_ms"] == pytest.approx(1.0)


def test_late_generator_invalidates_the_phase():
    records = [record(i, i + 1, i + 2) for i in range(90)] + [record(i, i + 9, i + 10) for i in range(10)]
    summary = loadgen.summarize_open(records, limit_ms=50, fail_ms=1000)
    assert summary["lateness_p99_ms"] == pytest.approx(9.0)
    assert not summary["valid"]


def test_every_bounded_metric_is_compared():
    spec = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["end_to_end"]]
    assert "p99_ms" in names
    metrics = {name: {"value": 1.0, "unit": "x"} for name in names}
    runs = [{"workload": "w", "env": {}, "trace": 0, "metrics": metrics}] * 3
    assert [row[1] for row in compare.compare(runs, runs, spec)] == names


def test_items_are_scaled_by_the_probes_around_them():
    events = [("probe", 0.5), ("setup", 1.0), ("setup", 2.0), ("probe", 1.0),
              ("round", 3.0), ("probe", 1.0)]
    items = run.calibrated(events)
    factor = 2 * run.REFERENCE_PROBE_S
    assert items["setup"] == [(1.0, pytest.approx(factor / 1.5)), (2.0, pytest.approx(factor / 1.5))]
    assert items["round"] == [(3.0, pytest.approx(factor / 2.0))]


def test_advisor_tail_is_the_median_burst_p99():
    slow = [0.001] * 97 + [0.5] * 3  # more than 1% slow: p99 is 0.5 s
    fast = [0.001] * 99 + [0.5]
    rounds = [workloads.Round(1.0, 100, latencies=slow),
              workloads.Round(1.0, 100, latencies=fast),
              workloads.Round(1.0, 100, latencies=slow)]
    events = [("probe", 0.1), ("setup", 1.0), ("probe", 0.1), ("round", 1.0),
              ("round", 1.0), ("probe", 0.1), ("round", 1.0), ("probe", 0.3)]
    metrics = run.end_to_end({"events": events, "rounds": rounds})
    # The bursts' p99s scale to 300, 0.6 and 150 ms; their median is 150.
    assert metrics["p99_ms"]["value"] == pytest.approx(1e3 * 0.5 * 2 * run.REFERENCE_PROBE_S / 0.4)


def test_resampled_profile_keeps_the_catalog_shape():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 5000, size=(4, 10, 4))
    base = {"names": ("a", "b", "c", "d"), "fractions": np.full(4, 0.25),
            "counts": counts, "zero_fit": counts[:, :, 0] // 3}
    body = loadgen.resample_profile(base, "p1-0", np.random.default_rng(1))["histogram"]
    drawn, zero_fit = np.array(body["counts"]), np.array(body["zero_fit"])
    assert drawn.shape == counts.shape and body["names"] == list(base["names"])
    assert (drawn.sum(axis=2) == counts.sum(axis=2)).all()
    assert (zero_fit <= drawn[:, :, 0]).all()
    assert not (drawn == counts).all()
