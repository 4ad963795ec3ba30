"""The front-door rule (``front-door``).

Package ``__init__`` files re-export nothing, so the salt graph
(:mod:`repro.engine.salts`) sees an import's real dependency: the
module it names.  ``from repro.pkg import name`` is therefore fine
only when ``name`` is a submodule of ``repro.pkg``, or when
``repro.pkg`` is a plain module rather than a package.  Anything else
reaches a name through a package's front door: the root's lazy facade
(``from repro import BuddyCompressor``) resolves at runtime yet salts
only the root, and any other package's import fails.  Both are
caught here, before a salt can miss a module.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.engine.salts import ImportGraph

from .pragmas import Finding


def front_door_findings(root: Path, package: str = "repro") -> list[Finding]:
    """Every ``from <package>[.pkg] import name`` under ``root/src`` whose
    ``name`` is not a submodule of a package."""
    graph = ImportGraph(Path(root) / "src", package, exempt=())
    findings = []
    for module, path in graph.paths.items():
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = graph.from_base(module, node)
            if graph.paths.get(base, Path()).name != "__init__.py":
                continue  # a plain module, or outside the package
            findings.extend(
                Finding(
                    rel,
                    node.lineno,
                    "front-door",
                    f"{alias.name} is imported through the {base} "
                    "package; import it from the module that defines it",
                )
                for alias in node.names
                if f"{base}.{alias.name}" not in graph.paths
            )
    return findings
