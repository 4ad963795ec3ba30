"""`repro check` / `repro doctor` surface: JSON schema, strict gates.

Also the meta-test the whole subsystem exists for: the live tree must
itself pass ``repro check --strict``.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.gpusim import _event_core
from repro.statics import all_passes, check_repo


def test_live_tree_is_clean_under_strict():
    report = check_repo()
    dirty = [f.render() for f in report.findings if not f.suppressed]
    assert report.ok(strict=True), "\n".join(dirty)


def test_all_passes_covers_the_documented_set():
    names = [check.name for check in all_passes()]
    assert names == [
        "determinism-lint",
        "c-twin-drift",
        "docs-sync",
    ]


def test_check_json_schema(tmp_path, capsys):
    assert cli.main(["check", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert {p["name"] for p in payload["passes"]} == {
        "determinism-lint",
        "c-twin-drift",
        "docs-sync",
    }
    for check in payload["passes"]:
        assert check["rules"], check["name"]
    for finding in payload["findings"]:
        assert set(finding) == {
            "rule",
            "severity",
            "path",
            "line",
            "message",
            "suppressed",
        }
    summary = payload["summary"]
    assert summary["errors"] == 0
    assert summary["strict_ok"] is True


def test_check_text_mode_prints_summary(capsys):
    assert cli.main(["check", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "repro check: 0 error(s)" in out


def test_doctor_json_embeds_check_summary(tmp_path, capsys):
    code = cli.main(["doctor", "--json", "--cache-dir", str(tmp_path)])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["check"]["errors"] == 0
    assert "strict_ok" in info["check"]
    assert "extension_stale" in info["event_core"]


def test_doctor_text_mode_keeps_the_event_core_line(tmp_path, capsys):
    assert cli.main(["doctor", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("event core:")
    assert "check:       0 error(s)" in out


@pytest.fixture()
def stale_extension(monkeypatch):
    """Simulate a present-but-ABI-stale compiled extension."""
    monkeypatch.setattr(_event_core, "_ext_stale", True)


def test_doctor_strict_fails_on_stale_extension(
    stale_extension, tmp_path, capsys
):
    code = cli.main(["doctor", "--strict", "--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "ABI-stale" in err
    assert "build_ext" in err


def test_doctor_without_strict_only_reports_staleness(
    stale_extension, tmp_path, capsys
):
    code = cli.main(["doctor", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "extension stale:     True" in out


def test_describe_reports_staleness(stale_extension):
    assert _event_core.describe()["extension_stale"] is True
