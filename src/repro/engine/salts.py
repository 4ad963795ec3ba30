"""Code salts, computed from the package's static import graph.

Every cache key — a design point's, a profile tensor's, an entry
state's, a trace's, a tape's — carries a *code salt*: a hash of the
source bytes of every module whose code can shape the cached value.
That module set is not declared anywhere.  It is the salt-relevant
closure of a few *roots* in the static import graph:

* an experiment's roots are the modules its ``run_point`` and
  ``plan_point`` references name (:func:`experiment_salt`);
* an artifact's roots are the modules of its build: the profiler and
  the codec's module for a profile tensor, the profiler for an entry
  state, ``workloads.traces`` for a trace, ``vector_sim`` and
  ``perf_study`` for a tape.

Edges are module-level and function-level imports alike (studies
import lazily inside functions), and every module has an edge to its
package, because importing it runs the package's ``__init__`` first.
One policy shapes a closure: **exempt modules are boundaries**
(:data:`DEFAULT_EXEMPT`).  The engine, the CLI and the analyzer
address results without computing them, and their own imports reach
the whole package, so they are neither hashed nor traversed.  Every
other module a walk reaches is hashed, package ``__init__`` files
included.  Those re-export nothing (each is a docstring; the root adds
a lazy facade that maps names to modules by string), so importing a
name from the module that defines it is the only way to reach it, and
the graph sees exactly that module.

A closure over-approximates: an import in a docstring example counts
as an edge, and an ``__init__``'s docstring is hashed.  That errs in
the safe direction — an extra module can only cause a spurious cache
miss, never a stale result.

The graph is cheap to build and keeps no syntax trees: a line scan
finds the import statements, each is parsed alone, and only a file
where one does not parse alone is parsed whole.  Sources are read
next to the installed package's ``__init__``, wherever it lives, and
nothing is imported.
"""

from __future__ import annotations

import ast
import hashlib
import re
from functools import lru_cache
from pathlib import Path

#: Modules (and their subtrees) that end a closure, with the reason
#: each is sound (docs/architecture.md lists them).
DEFAULT_EXEMPT: dict[str, str] = {
    "repro.engine": (
        "cache/registry/runner/planner machinery addresses results but "
        "does not compute them; addressing changes are versioned by "
        "CACHE_FORMAT_VERSION and planner parity is CI-enforced"
    ),
    "repro.api": "facade over repro.engine; same machinery boundary",
    "repro.cli": "command-line front door; never imported by a study",
    "repro.__main__": "module runner shim",
    "repro.gpusim._event_core_ext": (
        "the compiled event-core twin is deliberately not a salt axis: "
        "it is bit-identical to the salted pure-Python core by "
        "contract, enforced by tests/test_event_core.py and the CI "
        "event-core digest-diff job"
    ),
}

#: Start of a line that may begin an import statement.
_IMPORT_LINE = re.compile(r"^[ \t]*(?:import|from)[ \t]", re.M)


def _import_statements(text: str, package: str) -> list[str]:
    """Candidate import statements of ``text``, one logical line each.

    Only statements that name ``package`` or import relatively can
    bind an in-package module; the rest are skipped unparsed.
    """
    statements = []
    for match in _IMPORT_LINE.finditer(text):
        end = text.find("\n", match.start())
        end = len(text) if end < 0 else end
        statement = text[match.start():end]
        while end < len(text) and (
            statement.count("(") > statement.count(")")
            or statement.endswith("\\")
        ):
            end = text.find("\n", end + 1)
            end = len(text) if end < 0 else end
            statement = text[match.start():end]
        statement = statement.strip()
        if re.search(rf"\b{package}\b", statement) or statement.startswith(
            "from ."
        ):
            statements.append(statement)
    return statements


def _import_nodes(text: str, package: str) -> list[ast.AST]:
    """The import nodes of ``text`` that may bind in-package modules."""
    try:
        return [
            node
            for statement in _import_statements(text, package)
            for node in ast.parse(statement).body
        ]
    except SyntaxError:  # a statement the line scan cut short
        return list(ast.walk(ast.parse(text)))


class ImportGraph:
    """The static import graph of one package's source tree.

    ``paths`` maps every dotted module name to its source file; edges
    are computed per module on first use and memoised as names only.
    """

    def __init__(
        self,
        src_root: Path,
        package: str = "repro",
        exempt: dict[str, str] | tuple[str, ...] = DEFAULT_EXEMPT,
    ):
        self.package = package
        self.exempt = tuple(exempt)
        self.paths: dict[str, Path] = {}
        for path in sorted((Path(src_root) / package).rglob("*.py")):
            parts = path.relative_to(src_root).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.paths[".".join(parts)] = path
        self._imports: dict[str, tuple[str, ...]] = {}

    def is_exempt(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.exempt
        )

    def imports(self, module: str) -> tuple[str, ...]:
        """In-package modules ``module`` imports anywhere in its file."""
        if module not in self._imports:
            text = self.paths[module].read_text()
            self._imports[module] = self._resolve(
                module, _import_nodes(text, self.package)
            )
        return self._imports[module]

    def from_base(self, module: str, node: ast.ImportFrom) -> str:
        """The absolute module a ``from`` import inside ``module`` names."""
        if not node.level:
            return node.module or ""
        # Level 1 in a package __init__ is the package itself;
        # elsewhere it is the parent package.
        parts = module.split(".")
        if self.paths.get(module, Path()).name != "__init__.py":
            parts = parts[:-1]
        parts = parts[: len(parts) - node.level + 1]
        return ".".join(parts + ([node.module] if node.module else []))

    def _resolve(self, module: str, nodes) -> tuple[str, ...]:
        """The in-package modules a list of import nodes binds."""
        out: list[str] = []

        def add(name: str) -> None:
            # Strip attribute tails until a real module remains.
            while name and name not in self.paths:
                name = name.rpartition(".")[0]
            if name and name not in out:
                out.append(name)

        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == self.package:
                        add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = self.from_base(module, node)
                if base.split(".")[0] != self.package:
                    continue
                submodules = [
                    f"{base}.{alias.name}"
                    for alias in node.names
                    if f"{base}.{alias.name}" in self.paths
                ]
                # ``from pkg import submodule`` binds the submodule;
                # only an attribute of the package makes its __init__
                # a dependency.
                if len(submodules) < len(node.names):
                    add(base)
                for name in submodules:
                    add(name)
        return tuple(out)

    def closure(self, roots) -> tuple[str, ...]:
        """Sorted salt-relevant modules reachable from ``roots``.

        Exempt modules end the walk; roots outside the package are
        ignored.
        """
        seen: set[str] = set()
        stack = [root for root in roots if root in self.paths]
        while stack:
            module = stack.pop()
            if module in seen:
                continue
            seen.add(module)
            package = module.rpartition(".")[0]
            if package:  # importing a module runs its package's __init__
                stack.append(package)
            if not self.is_exempt(module):
                stack.extend(self.imports(module))
        return tuple(sorted(m for m in seen if not self.is_exempt(m)))


@lru_cache(maxsize=None)
def package_graph() -> ImportGraph:
    """The import graph of the installed ``repro`` package."""
    import repro

    return ImportGraph(Path(repro.__file__).parent.parent)


@lru_cache(maxsize=None)
def code_salt(roots: tuple[str, ...]) -> str:
    """Hash of the source bytes of the salt-relevant closure of ``roots``.

    Editing any module the roots reach changes the salt and so
    invalidates every result keyed by it.  A root outside the package
    (a codec defined elsewhere) adds nothing: its qualified name is in
    the key's parameters instead.
    """
    import repro

    graph = package_graph()
    digest = hashlib.sha256(repro.__version__.encode("utf-8"))
    for module in graph.closure(roots):
        digest.update(module.encode("utf-8") + b"\0")
        digest.update(graph.paths[module].read_bytes())
    return digest.hexdigest()[:16]


def experiment_roots(experiment) -> tuple[str, ...]:
    """The modules an experiment's ``run_point``/``plan_point`` name."""
    return tuple(
        sorted(
            {
                reference.partition(":")[0]
                for reference in (experiment.run_point, experiment.plan_point)
                if reference is not None
            }
        )
    )


def experiment_salt(experiment) -> str:
    """Code salt of a registered experiment's design points."""
    return code_salt(experiment_roots(experiment))
