"""The CLI goes through the experiment registry only.

Every registered experiment runs and formats itself through ``repro
run``; the exact paper-style text of the subset runs is pinned so a
formatter that moves or changes shows up here.  ``repro doctor``
reports the active event core and, under ``--strict``, fails on an
ABI-stale build.
"""

import argparse
import json

import pytest

from repro.cli import _engine_params, main
from repro.engine import experiment_names, get_experiment
from repro.gpusim import _event_core
from repro.gpusim.config import scaled_config
from repro.gpusim.simulator import DependencyDrivenSimulator

#: The smallest snapshot scale the CI smoke runs use.
SCALE = "3.0517578125e-05"

#: The built-in experiments (tests may register toy ones alongside).
BUILTINS = [
    name
    for name in experiment_names()
    if get_experiment(name).run_point.startswith("repro.")
]


def _run(capsys, *argv: str) -> str:
    assert main(["run", *argv, "--no-cache", "--quiet", "--scale", SCALE]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", BUILTINS)
def test_every_experiment_runs_and_formats_itself(name, capsys):
    defaults = get_experiment(name).defaults()
    benchmark = (defaults.get("networks") or defaults["benchmarks"])[0]
    assert _run(capsys, name, benchmark).strip()


def test_fig3_subset_output_is_pinned(capsys):
    assert _run(capsys, "compression.fig3", "354.cg") == (
        "354.cg          1.14\n"
        "GMEAN HPC 1.14 (paper 2.51)\n"
    )


def test_fig7_subset_output_is_pinned(capsys):
    assert _run(capsys, "compression.fig7", "354.cg", "VGG16") == (
        "naive            HPC: 1.00x, 0.00% buddy accesses\n"
        "naive            DL: 1.33x, 18.75% buddy accesses\n"
        "per-allocation   HPC: 1.10x, 0.00% buddy accesses\n"
        "per-allocation   DL: 1.61x, 4.20% buddy accesses\n"
        "final            HPC: 1.10x, 0.00% buddy accesses\n"
        "final            DL: 1.69x, 4.20% buddy accesses\n"
    )


def test_fig7_skips_a_suite_the_subset_left_empty(capsys):
    """No made-up ``DL: 0.00x`` rows for an HPC-only subset."""
    assert _run(capsys, "compression.fig7", "354.cg") == (
        "naive            HPC: 1.00x, 0.00% buddy accesses\n"
        "per-allocation   HPC: 1.10x, 0.00% buddy accesses\n"
        "final            HPC: 1.10x, 0.00% buddy accesses\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cache", "--evict-to=-1G"],
        ["cache", "--evict-to", "inf"],
        ["run", "um.fig12", "--cache-max-bytes", "1e400"],
        ["run", "um.fig12", "--cache-max-bytes", "nan"],
    ],
)
def test_bad_sizes_are_usage_errors(argv, tmp_path, capsys):
    """A negative or non-finite size is argparse's exit 2, not a
    traceback and not an evict-everything bound."""
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "invalid parse_size value" in capsys.readouterr().err


def test_negative_evict_to_keeps_every_entry(tmp_path, capsys):
    cache_dir = ["--cache-dir", str(tmp_path)]
    assert main(["run", "um.fig12", "--quiet", "--scale", SCALE, *cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "--json", *cache_dir]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries > 0
    with pytest.raises(SystemExit):
        main(["cache", "--evict-to=-1G", *cache_dir])
    capsys.readouterr()
    assert main(["cache", "--json", *cache_dir]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == entries


def test_legacy_engine_is_a_usage_error(capsys):
    """Two engines remain; ``legacy`` is a bad spec like any other."""
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "perf.fig11", "--engine", "legacy", "--no-cache"])
    assert excinfo.value.code == 2
    assert "unknown engine 'legacy'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --engine NAME[:verify=FRACTION]: the CLI's one engine option.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "text, params",
    [
        (" relaxed:verify=0.5 ", {"engine": "relaxed", "verify": 0.5}),
        ("relaxed: verify=0.5", {"engine": "relaxed", "verify": 0.5}),
        ("relaxed:verify=0.5,", {"engine": "relaxed", "verify": 0.5}),
        ("relaxed:", {"engine": "relaxed", "verify": 0.0}),
    ],
)
def test_engine_lenient_spellings(text, params):
    """Hand-typed ``--engine`` values: surrounding blanks, blanks
    before a key, a trailing comma and an empty option list parse to
    the selection they spell."""
    assert _engine_params(text) == params


@pytest.mark.parametrize(
    "text",
    [
        "warp-speed",  # unknown engine
        "relaxed:bogus=1",  # unknown option
        "relaxed:verify",  # missing value
        "relaxed:verify=fast",  # non-numeric
        "relaxed:verify=1.5",  # not a fraction
        "vectorized:verify=0.5",  # only the relaxed engine verifies
    ],
)
def test_engine_bad_strings_are_usage_errors(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _engine_params(text)


@pytest.mark.parametrize(
    "text, params",
    [
        ("vectorized", {"engine": "vectorized", "verify": 0.0}),
        ("relaxed", {"engine": "relaxed", "verify": 0.0}),
        ("relaxed:verify=0.5", {"engine": "relaxed", "verify": 0.5}),
        ("relaxed:verify=1", {"engine": "relaxed", "verify": 1.0}),
    ],
)
def test_engine_name_and_verify_are_the_cache_axes(text, params):
    """Each canonical spelling becomes exactly the ``engine`` and
    ``verify`` parameters of the study it selects, nothing more."""
    assert _engine_params(text) == params


@pytest.mark.parametrize("text", ["vectorized", "relaxed:verify=0.25"])
def test_engine_params_thread_into_the_simulator(text):
    """The parsed selection constructs the simulator it names."""
    params = _engine_params(text)
    simulator = DependencyDrivenSimulator(scaled_config(), **params)
    assert (simulator.engine, simulator.verify) == (
        params["engine"],
        params["verify"],
    )


def test_engine_defaults_match_the_perf_study():
    """The ``--engine`` type and the simulator default to perf.fig11's
    engine parameters, so choosing the default forks no cache key."""
    defaults = get_experiment("perf.fig11").resolve_params(None)
    expected = {"engine": defaults["engine"], "verify": defaults["verify"]}
    assert _engine_params("vectorized") == expected
    simulator = DependencyDrivenSimulator(scaled_config())
    assert {"engine": simulator.engine, "verify": simulator.verify} == expected


def test_fig10_warns_that_it_has_no_engine_axis(capsys):
    """Fig. 10 runs the exact engine only: an engine selection warns,
    is ignored and leaves the result digest unchanged."""
    argv = ["run", "correlation.fig10", "--no-cache"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main([*argv, "--engine", "relaxed:verify=1.0"]) == 0
    selected = capsys.readouterr()
    assert (
        "warning: correlation.fig10 has no simulator engine axis"
        in selected.err
    )
    assert "warning" not in plain.err

    def digest(out):
        return [line for line in out.splitlines() if "result digest" in line]

    assert digest(selected.out) == digest(plain.out) != []


def test_check_is_not_a_subcommand(capsys):
    """Static invariants are tier-1 tests (``tests/statics``), not a CLI."""
    with pytest.raises(SystemExit) as excinfo:
        main(["check"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'check'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro doctor: the event core and its ABI-staleness gate.
# ---------------------------------------------------------------------------
def test_doctor_json_reports_staleness(tmp_path, capsys):
    code = main(["doctor", "--json", "--cache-dir", str(tmp_path)])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert "check" not in info
    assert "extension_stale" in info["event_core"]


def test_doctor_text_mode_keeps_the_event_core_line(tmp_path, capsys):
    assert main(["doctor", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("event core:")
    assert "check:" not in out


@pytest.fixture()
def stale_extension(monkeypatch):
    """Simulate a present-but-ABI-stale compiled extension."""
    monkeypatch.setattr(_event_core, "_ext_stale", True)


def test_doctor_strict_fails_on_stale_extension(
    stale_extension, tmp_path, capsys
):
    code = main(["doctor", "--strict", "--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "ABI-stale" in err
    assert "build_ext" in err


def test_doctor_without_strict_only_reports_staleness(
    stale_extension, tmp_path, capsys
):
    code = main(["doctor", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "extension stale:     True" in out


def test_describe_reports_staleness(stale_extension):
    assert _event_core.describe()["extension_stale"] is True
