"""The docs cannot rot silently.

Every relative link in README and docs/ resolves, README links the
docs' front doors, documented ``repro run`` experiment names are
registered, digests quoted in the docs match the values the golden
tests pin, and every Sphinx-role cross-reference in a source
docstring names something that exists.  Each rule also fires on a
planted defect in a fixture checkout.
"""

from __future__ import annotations

import pytest

from .docs_sync import DOC_FILES, REQUIRED_README_LINKS, check_docs, check_xrefs
from .fixtures import write_tree
from .pragmas import REPO_ROOT, render, unsuppressed

_PINNED = "0123456789abcdef0123456789abcdef"


def test_docs_are_consistent():
    findings = unsuppressed(REPO_ROOT, check_docs(REPO_ROOT))
    assert not findings, render(findings)


def test_docstring_cross_references_resolve():
    findings = unsuppressed(REPO_ROOT, check_xrefs(REPO_ROOT))
    assert not findings, render(findings)


def test_required_docs_exist():
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "engines.md").is_file()


def _rules(tmp_path, planted: dict[str, str]) -> list[str]:
    """Rules fired on a clean fixture checkout with ``planted`` docs."""
    files = {name: "# doc\n" for name in DOC_FILES}
    files["README.md"] = "".join(
        f"[{name}]({name})\n" for name in REQUIRED_README_LINKS
    )
    files["src/fixpkg/engine/experiments.py"] = (
        'register(Experiment(name="demo.fig1", run_point=None))\n'
    )
    files["tests/test_vector_sim.py"] = f'GOLDEN = "{_PINNED}"\n'
    write_tree(tmp_path, files | planted)
    return [f.rule for f in check_docs(tmp_path, "fixpkg")]


def test_clean_fixture_checkout_has_no_findings(tmp_path):
    assert _rules(
        tmp_path,
        {
            "docs/engines.md": (
                f"`repro run demo.fig1` gives {_PINNED} ({_PINNED[:8]}…)\n"
                "[home](../README.md)\n"
            )
        },
    ) == []


def test_broken_relative_link_is_flagged(tmp_path):
    assert _rules(tmp_path, {"docs/planner.md": "[gone](moved.md)\n"}) == [
        "docs-link"
    ]


def test_unlinked_front_door_is_flagged(tmp_path):
    assert _rules(tmp_path, {"README.md": "[engines](docs/engines.md)\n"}) == [
        "docs-readme"
    ] * (len(REQUIRED_README_LINKS) - 1)


def test_unregistered_experiment_is_flagged(tmp_path):
    assert _rules(tmp_path, {"docs/serving.md": "`repro run demo.fig9`\n"}) == [
        "docs-experiment"
    ]


def test_unpinned_digests_are_flagged(tmp_path):
    assert _rules(
        tmp_path, {"docs/statics.md": f"{'f' * 32} and deadbeef… drifted\n"}
    ) == ["docs-digest", "docs-digest"]


@pytest.fixture()
def xref_package(tmp_path, monkeypatch):
    """An importable fixture package whose docstrings cite itself."""
    write_tree(
        tmp_path,
        {
            "src/fixxref/__init__.py": "",
            "src/fixxref/mod.py": (
                '"""See :func:`~fixxref.mod.present`, :mod:`fixxref`,\n'
                ":data:`fixxref.mod.Holder.VALUE` and :mod:`numpy`.\n\n"
                ":func:`fixxref.mod.absent` and :mod:`fixxref.gone` rot.\n"
                '"""\n\n\n'
                "def present():\n    pass\n\n\n"
                "class Holder:\n    VALUE = 1\n"
            ),
        },
    )
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    return tmp_path


def test_dangling_cross_references_are_flagged(xref_package):
    findings = check_xrefs(xref_package, "fixxref")
    assert [(f.rule, f.path, f.line) for f in findings] == [
        ("docs-xref", "src/fixxref/mod.py", 4),
        ("docs-xref", "src/fixxref/mod.py", 4),
    ]
    assert "fixxref.mod.absent" in findings[0].message
    assert "fixxref.gone" in findings[1].message
