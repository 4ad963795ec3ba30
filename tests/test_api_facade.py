"""Facade and CLI-JSON coverage backfill.

Pins the parts of the public surface the other suites only graze:

* :func:`repro.api.advise` — the advisor's library form — answers
  digest-identically to :func:`repro.serve.advisor.advise_one` and turns
  misuse into typed :class:`repro.serve.protocol.InvalidRequest` errors;
* ``repro doctor --json`` and ``repro cache --json`` emit exactly the
  documented key sets (machine consumers parse these — a silently
  added or renamed key is an interface break);
* the CLI's user-error path exits 2 with a message, never a
  traceback;
* ``import repro`` loads nothing else, yet its facade names resolve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.engine import ExperimentRunner, ResultCache
from repro.serve.protocol import InvalidRequest, AdviceRequest
from repro.serve.advisor import advise_one
from repro.workloads.snapshots import SnapshotConfig

TINY = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)


_LEAN_IMPORT = """
import json, sys
import repro
loaded = sorted(m for m in sys.modules if m.startswith(("repro", "asyncio")))
resolved = [repro.run.__module__, repro.BuddyCompressor.__module__]
print(json.dumps([loaded, resolved, repro.__version__]))
"""


def test_import_repro_loads_nothing_else():
    """``import repro`` loads no other ``repro`` module (so neither the
    advisor server nor asyncio); the facade names resolve on use."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _LEAN_IMPORT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
    )
    loaded, resolved, version = json.loads(proc.stdout)
    assert loaded == ["repro"]
    assert resolved == ["repro.api", "repro.core.controller"]
    assert version == repro.__version__
    with pytest.raises(AttributeError):
        repro.no_such_name


class TestAdviseFacade:
    def test_field_form_matches_one_shot(self):
        advice = repro.api.advise(benchmark="VGG16", config=TINY)
        assert advice.digest == advise_one(
            AdviceRequest(benchmark="VGG16"), config=TINY
        ).digest
        assert advice.recommendation["design"] in (
            "naive",
            "per-allocation",
            "final",
        )

    def test_request_form_matches_field_form(self):
        request = AdviceRequest(benchmark="VGG16", thresholds=(0.1, 0.3))
        assert (
            repro.api.advise(request, config=TINY).digest
            == repro.api.advise(
                benchmark="VGG16", thresholds=(0.1, 0.3), config=TINY
            ).digest
        )

    def test_request_plus_fields_is_rejected(self):
        with pytest.raises(InvalidRequest) as excinfo:
            repro.api.advise(
                AdviceRequest(benchmark="VGG16"), benchmark="AlexNet"
            )
        assert excinfo.value.code == "bad-request"

    def test_unknown_field_is_rejected_typed(self):
        with pytest.raises(InvalidRequest) as excinfo:
            repro.api.advise(benchmark="VGG16", temperature=0.7)
        assert excinfo.value.code == "bad-request"

    def test_invalid_field_values_stay_typed(self):
        with pytest.raises(InvalidRequest) as excinfo:
            repro.api.advise(benchmark="VGG16", codec="gzip")
        assert excinfo.value.code == "unknown-codec"
        with pytest.raises(InvalidRequest) as excinfo:
            repro.api.advise()
        assert excinfo.value.code == "missing-profile"


class TestDoctorJson:
    def test_exact_key_sets(self, tmp_path, capsys):
        assert main(["doctor", "--json", "--cache-dir", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == [
            "cache",
            "event_core",
            "numpy",
            "platform",
            "python",
            "tape",
        ]
        assert sorted(report["event_core"]) == [
            "detail",
            "event_core",
            "extension_abi",
            "extension_available",
            "extension_stale",
            "forced_python",
        ]
        assert sorted(report["cache"]) == ["bytes", "entries", "root"]
        assert sorted(report["tape"]) == ["bytes", "entries", "format_version"]

    def test_values_are_json_scalars(self, tmp_path, capsys):
        main(["doctor", "--json", "--cache-dir", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert report["event_core"]["event_core"] in ("compiled", "python")
        assert report["cache"]["root"] == str(tmp_path)


class TestCacheJson:
    def test_exact_key_set_cold(self, tmp_path, capsys):
        assert main(["cache", "--json", "--cache-dir", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == [
            "bytes",
            "entries",
            "evictions",
            "per_experiment",
            "root",
            "tape_format_version",
        ]
        assert report["entries"] == 0
        assert report["per_experiment"] == {}

    def test_warm_cache_reports_per_experiment_rows(self, tmp_path, capsys):
        runner = ExperimentRunner(cache=ResultCache(tmp_path))
        repro.run(
            "compression.fig3",
            {"benchmarks": ("VGG16",), "config": TINY},
            runner=runner,
        )
        main(["cache", "--json", "--cache-dir", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] >= 1
        assert report["bytes"] > 0
        assert "compression.fig3" in report["per_experiment"]
        row = report["per_experiment"]["compression.fig3"]
        assert row["entries"] >= 1 and row["bytes"] > 0


class TestCliUserErrors:
    def test_unknown_benchmark_exits_2_with_message(self, capsys):
        code = main(["run", "compression.fig3", "NoSuchBench", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_experiment_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "no.such.experiment"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
