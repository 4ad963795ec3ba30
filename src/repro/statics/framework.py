"""The pass framework behind ``repro check``.

A :class:`Pass` inspects the source tree through a :class:`Context`
(cached sources, ASTs and module tables) and returns
:class:`Finding`\\ s.  :func:`run_checks` runs a list of passes,
applies the inline suppression pragmas and folds everything into a
:class:`Report` the CLI renders as text or JSON.

Suppression syntax::

    something_hazardous()  # repro: allow[rule-id] short reason

The pragma suppresses findings for ``rule-id`` raised on its own line
or the line directly below it (so a pragma-only line can precede a
long statement).  Several rules may be listed comma-separated.  A
pragma **must** carry a reason; a bare ``allow[rule]`` is itself
reported (rule ``statics-pragma``) so exceptions stay documented.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field, replace
from pathlib import Path


class Severity(enum.IntEnum):
    """How a finding gates ``repro check``.

    ``ERROR`` findings fail the check always; ``WARNING`` findings
    fail it only under ``--strict`` (the CI gate).
    """

    WARNING = 1
    ERROR = 2


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    severity: Severity
    path: str  #: repo-relative, ``/``-separated
    line: int  #: 1-based; 0 = whole file
    message: str
    suppressed: bool = False

    def render(self) -> str:
        tag = "error" if self.severity is Severity.ERROR else "warning"
        note = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{tag}] {self.rule}: {self.message}{note}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.name.lower(),
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "suppressed": self.suppressed,
        }


class Pass:
    """Base class: one named analysis producing findings.

    Subclasses set :attr:`name`, :attr:`description` and :attr:`rules`
    (the rule ids they may emit — ``repro check`` lists them and
    ``docs/statics.md`` documents them) and implement :meth:`run`.
    """

    name: str = ""
    description: str = ""
    rules: tuple[str, ...] = ()

    def run(self, ctx: "Context") -> list[Finding]:  # pragma: no cover
        raise NotImplementedError


class Context:
    """Shared view of the analyzed tree, with parse caches.

    ``src_root`` is the directory containing the analyzed package
    (``src/`` for this repository) and ``repo_root`` the directory
    findings are reported relative to (it also holds ``README.md`` and
    ``docs/`` for the docs-sync pass).
    """

    def __init__(self, repo_root: Path, src_root: Path, package: str = "repro"):
        self.repo_root = Path(repo_root)
        self.src_root = Path(src_root)
        self.package = package
        self._sources: dict[Path, str] = {}
        self._trees: dict[Path, ast.Module] = {}
        self._modules: dict[str, Path] | None = None

    @classmethod
    def for_repo(cls, repo_root=None) -> "Context":
        """Context for this repository, located from the package."""
        if repo_root is None:
            import repro

            # src/repro/__init__.py -> src -> repo root
            repo_root = Path(repro.__file__).resolve().parent.parent.parent
        repo_root = Path(repo_root)
        return cls(repo_root, repo_root / "src", "repro")

    # -- file access ---------------------------------------------------
    def rel(self, path: Path) -> str:
        path = Path(path)
        try:
            return path.resolve().relative_to(self.repo_root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def source(self, path: Path) -> str:
        path = Path(path)
        if path not in self._sources:
            self._sources[path] = path.read_text()
        return self._sources[path]

    def tree(self, path: Path) -> ast.Module:
        path = Path(path)
        if path not in self._trees:
            self._trees[path] = ast.parse(self.source(path), filename=str(path))
        return self._trees[path]

    # -- module table ----------------------------------------------------
    def modules(self) -> dict[str, Path]:
        """``{dotted module name: source path}`` for the package."""
        if self._modules is None:
            from repro.engine.salts import ImportGraph

            self._modules = ImportGraph(self.src_root, self.package).paths
        return self._modules

    def module_path(self, module: str) -> Path | None:
        return self.modules().get(module)


#: ``# repro: allow[rule-a, rule-b] reason`` (reason mandatory).
_PRAGMA = re.compile(
    r"#\s*repro:\s*allow\[([^\]]*)\]([^\n]*)"
)


@dataclass
class Pragmas:
    """Parsed suppression pragmas of one file."""

    #: line -> rule ids allowed on that line and the next
    allows: dict[int, frozenset[str]] = field(default_factory=dict)
    #: lines carrying a pragma with no reason text
    missing_reason: list[int] = field(default_factory=list)

    def suppresses(self, rule: str, line: int) -> bool:
        for pragma_line in (line, line - 1):
            rules = self.allows.get(pragma_line)
            if rules and rule in rules:
                return True
        return False


def parse_pragmas(source: str) -> Pragmas:
    """Scan one file's text for suppression pragmas."""
    pragmas = Pragmas()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if not match:
            continue
        rules = frozenset(
            rule.strip() for rule in match.group(1).split(",") if rule.strip()
        )
        pragmas.allows[lineno] = rules
        if not match.group(2).strip():
            pragmas.missing_reason.append(lineno)
    return pragmas


@dataclass
class PassResult:
    """One pass's contribution to the report."""

    name: str
    description: str
    rules: tuple[str, ...]
    findings: int  #: unsuppressed findings emitted by this pass

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "rules": list(self.rules),
            "findings": self.findings,
        }


@dataclass
class Report:
    """Everything ``repro check`` learned in one run."""

    findings: list[Finding]
    passes: list[PassResult]

    @property
    def errors(self) -> int:
        return sum(
            1
            for f in self.findings
            if f.severity is Severity.ERROR and not f.suppressed
        )

    @property
    def warnings(self) -> int:
        return sum(
            1
            for f in self.findings
            if f.severity is Severity.WARNING and not f.suppressed
        )

    @property
    def suppressed(self) -> int:
        return sum(1 for f in self.findings if f.suppressed)

    def ok(self, strict: bool = False) -> bool:
        if strict:
            return self.errors == 0 and self.warnings == 0
        return self.errors == 0

    def summary(self) -> dict:
        return {
            "errors": self.errors,
            "warnings": self.warnings,
            "suppressed": self.suppressed,
            "ok": self.ok(),
            "strict_ok": self.ok(strict=True),
        }

    def to_json(self) -> dict:
        return {
            "version": 1,
            "passes": [p.to_json() for p in self.passes],
            "findings": [f.to_json() for f in self.findings],
            "summary": self.summary(),
        }


def apply_suppressions(
    ctx: Context, findings: list[Finding]
) -> list[Finding]:
    """Mark findings matched by an inline pragma as suppressed."""
    pragma_cache: dict[str, Pragmas] = {}
    out = []
    for finding in findings:
        pragmas = pragma_cache.get(finding.path)
        if pragmas is None:
            path = ctx.repo_root / finding.path
            try:
                pragmas = parse_pragmas(ctx.source(path))
            except OSError:
                pragmas = Pragmas()
            pragma_cache[finding.path] = pragmas
        if pragmas.suppresses(finding.rule, finding.line):
            finding = replace(finding, suppressed=True)
        out.append(finding)
    return out


def pragma_findings(ctx: Context) -> list[Finding]:
    """Framework-level findings: pragmas without a reason."""
    findings = []
    for module, path in sorted(ctx.modules().items()):
        pragmas = parse_pragmas(ctx.source(path))
        for line in pragmas.missing_reason:
            findings.append(
                Finding(
                    rule="statics-pragma",
                    severity=Severity.ERROR,
                    path=ctx.rel(path),
                    line=line,
                    message=(
                        "suppression pragma has no reason; write "
                        "'# repro: allow[rule-id] why this is safe'"
                    ),
                )
            )
    return findings


def run_checks(ctx: Context, passes: list[Pass]) -> Report:
    """Run ``passes`` over ``ctx`` and fold into a :class:`Report`."""
    findings: list[Finding] = []
    results: list[PassResult] = []
    for check in passes:
        emitted = apply_suppressions(ctx, check.run(ctx))
        findings.extend(emitted)
        results.append(
            PassResult(
                name=check.name,
                description=check.description,
                rules=check.rules,
                findings=sum(1 for f in emitted if not f.suppressed),
            )
        )
    findings.extend(pragma_findings(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return Report(findings=findings, passes=results)
