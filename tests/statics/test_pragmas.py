"""Suppression pragmas: parsing, suppression, and the reason they must give."""

from __future__ import annotations

from .fixtures import write_tree
from .pragmas import (
    REPO_ROOT,
    Finding,
    parse_pragmas,
    pragma_findings,
    render,
    unsuppressed,
)


def _finding(rule="demo-rule", line=2, path="src/fixpkg/mod.py"):
    return Finding(path, line, rule, "planted")


def test_live_tree_pragmas_give_reasons():
    sources = (REPO_ROOT / "src" / "repro").rglob("*.py")
    findings = pragma_findings(REPO_ROOT, sources)
    assert not findings, render(findings)


def test_parse_pragmas_extracts_rules_and_reasons():
    source = (
        "x = 1  # repro: allow[rule-a, rule-b] both are fine here\n"
        "y = 2\n"
        "z = 3  # repro: allow[rule-c]\n"
    )
    pragmas = parse_pragmas(source)
    assert pragmas.allows[1] == frozenset({"rule-a", "rule-b"})
    assert pragmas.allows[3] == frozenset({"rule-c"})
    assert pragmas.missing_reason == [3]


def test_pragma_suppresses_same_line_and_line_below():
    pragmas = parse_pragmas("# repro: allow[rule-a] reason\nx = hazard()\n")
    assert pragmas.suppresses("rule-a", 1)
    assert pragmas.suppresses("rule-a", 2)
    assert not pragmas.suppresses("rule-a", 3)
    assert not pragmas.suppresses("rule-b", 2)


def test_suppressed_findings_do_not_count(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/fixpkg/mod.py": (
                "a = 1\n"
                "b = 2  # repro: allow[demo-rule] known-good here\n"
                "c = 3\n"
            ),
        },
    )
    # The pragma on line 2 covers its own line (and, by design, the
    # line below); the finding on line 1 stays live.
    live = unsuppressed(tmp_path, [_finding(line=2), _finding(line=1)])
    assert live == [_finding(line=1)]


def test_bare_pragma_is_itself_reported(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/fixpkg/ok.py": "a = 1  # repro: allow[demo-rule] a reason\n",
            "src/fixpkg/mod.py": "b = 2  # repro: allow[demo-rule]\n",
        },
    )
    (finding,) = pragma_findings(tmp_path, (tmp_path / "src").rglob("*.py"))
    assert finding.rule == "statics-pragma"
    assert finding.path == "src/fixpkg/mod.py"
    assert finding.line == 1


def test_findings_sort_by_location(tmp_path):
    findings = [
        _finding(path="src/fixpkg/b.py", line=1),
        _finding(path="src/fixpkg/a.py", line=9),
        _finding(path="src/fixpkg/a.py", line=1),
    ]
    assert [(f.path, f.line) for f in unsuppressed(tmp_path, findings)] == [
        ("src/fixpkg/a.py", 1),
        ("src/fixpkg/a.py", 9),
        ("src/fixpkg/b.py", 1),
    ]


def test_finding_renders_as_path_line_rule_message():
    assert str(_finding()) == "src/fixpkg/mod.py:2: demo-rule: planted"
    assert render([_finding(line=1), _finding()]) == (
        "src/fixpkg/mod.py:1: demo-rule: planted\n"
        "src/fixpkg/mod.py:2: demo-rule: planted"
    )
