"""Docs sync (``docs-*`` rules).

The documentation checker behind ``tests/statics/test_docs_sync.py``.
Docs rot in five ways this catches mechanically:

``docs-link``
    A relative markdown link in a tracked doc stops resolving (file
    moved or renamed).
``docs-readme``
    README.md no longer links one of the docs' front doors.
``docs-experiment``
    A documented ``repro run <experiment>`` name drifts from the
    experiment registry (the ``name=`` of every ``Experiment(...)``
    call in the registration module, parsed — no imports are
    executed).
``docs-digest``
    A digest quoted in the docs (full 32-hex or abbreviated
    ``36fffebd…`` form) is not pinned by any test.
``docs-xref``
    A Sphinx-role cross-reference in a source docstring
    (``:func:`~repro.core.targets.select```) names something that no
    longer exists: the longest importable module prefix of the dotted
    name, then ``getattr`` for the rest, must resolve.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

from .pragmas import Finding

#: Markdown files whose relative links must resolve.
DOC_FILES = (
    "README.md",
    "docs/architecture.md",
    "docs/engines.md",
    "docs/planner.md",
    "docs/serving.md",
    "docs/statics.md",
)

#: Links README must carry (the docs' front doors).
REQUIRED_README_LINKS = (
    "docs/architecture.md",
    "docs/engines.md",
    "docs/planner.md",
    "docs/serving.md",
    "docs/statics.md",
)

#: Test files whose digest literals are the source of truth.
DIGEST_TEST_FILES = ("tests/test_vector_sim.py", "tests/test_relaxed_sim.py")

_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
_RUN_NAME = re.compile(r"repro run ([a-z_]+\.[a-z0-9_]+)")
_DIGEST = re.compile(r"\b[0-9a-f]{32}\b")
#: Abbreviated digests in prose, e.g. "36fffebd…" / "282a94e8...".
_SHORT_DIGEST = re.compile(r"\b([0-9a-f]{8})(?:…|\.\.\.)")
#: A Sphinx-role cross-reference, e.g. ``:func:`~repro.rng.stream```.
_XREF = re.compile(r":(?:mod|func|class|data|meth|attr|obj):`~?([\w.]+)`")


def registered_names(path: Path) -> set[str]:
    """Names registered by an experiments module, by parse."""
    if not path.is_file():
        return set()
    return {
        keyword.value.value
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Experiment"
        for keyword in node.keywords
        if keyword.arg == "name" and isinstance(keyword.value, ast.Constant)
    }


def check_docs(root: Path, package: str = "repro") -> list[Finding]:
    """All documentation-consistency findings for the checkout at ``root``."""
    findings: list[Finding] = []

    def error(rule: str, path: str, line: int, message: str) -> None:
        findings.append(Finding(path, line, rule, message))

    docs: dict[str, str] = {}
    for name in DOC_FILES:
        path = root / name
        if not path.is_file():
            error("docs-link", name, 0, "tracked documentation file is missing")
            continue
        docs[name] = path.read_text()

    # -- registry names, resolved statically ---------------------------
    experiments = f"src/{package}/engine/experiments.py"
    registered = registered_names(root / experiments) or None
    if registered is None:
        error(
            "docs-experiment",
            experiments,
            0,
            "cannot resolve registered experiment names",
        )

    # -- test-pinned digests -------------------------------------------
    pinned: set[str] = set()
    for test_file in DIGEST_TEST_FILES:
        path = root / test_file
        if path.is_file():
            pinned.update(_DIGEST.findall(path.read_text()))

    for name, text in docs.items():
        doc_dir = (root / name).parent
        for lineno, line in enumerate(text.splitlines(), start=1):
            for target in _LINK.findall(line):
                if "://" in target:  # external URL, not checked offline
                    continue
                if not (doc_dir / target).resolve().exists():
                    error(
                        "docs-link",
                        name,
                        lineno,
                        f"broken relative link -> {target}",
                    )
            if registered is not None:
                for experiment in _RUN_NAME.findall(line):
                    if experiment not in registered:
                        error(
                            "docs-experiment",
                            name,
                            lineno,
                            f"documents unregistered experiment "
                            f"{experiment!r}",
                        )
            for digest in _DIGEST.findall(line):
                if digest not in pinned:
                    error(
                        "docs-digest",
                        name,
                        lineno,
                        f"digest {digest} is not pinned by any test",
                    )
            for prefix in _SHORT_DIGEST.findall(line):
                if not any(full.startswith(prefix) for full in pinned):
                    error(
                        "docs-digest",
                        name,
                        lineno,
                        f"abbreviated digest {prefix}… matches no "
                        "test-pinned digest",
                    )

    if "README.md" in docs:
        for required in REQUIRED_README_LINKS:
            if required not in docs["README.md"]:
                error(
                    "docs-readme",
                    "README.md",
                    0,
                    f"README does not link {required}",
                )
    return findings


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module or an attribute chain off one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_xrefs(root: Path, package: str = "repro") -> list[Finding]:
    """``docs-xref``: every docstring reference into ``package`` resolves."""
    findings = []
    for path in sorted((root / "src" / package).rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for target in _XREF.findall(line):
                # The compiled event core is optional: its C source
                # stands for it in a checkout that never built it.
                c_source = root / "src" / f"{target.replace('.', '/')}.c"
                if c_source.is_file() or target.split(".")[0] != package:
                    continue
                if not resolves(target):
                    findings.append(
                        Finding(
                            rel,
                            lineno,
                            "docs-xref",
                            f"cross-reference {target} does not resolve",
                        )
                    )
    return findings
