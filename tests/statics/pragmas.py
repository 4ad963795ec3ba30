"""Findings and suppression pragmas shared by the static-invariant tests.

Each static rule reports :class:`Finding`\\ s; a live-tree test drops
the ones an inline pragma suppresses and fails on the rest, one
``path:line: rule-id: message`` line each.

Suppression syntax::

    something_hazardous()  # repro: allow[rule-id] short reason

The pragma suppresses findings for ``rule-id`` raised on its own line
or the line directly below it (so a pragma-only line can precede a
long statement).  Several rules may be listed comma-separated.  A
pragma **must** carry a reason; a bare ``allow[rule]`` is itself a
finding (rule ``statics-pragma``) so exceptions stay documented.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

#: The checkout these tests live in: ``README.md``, ``docs/``, ``src/``.
REPO_ROOT = Path(__file__).resolve().parents[2]


class Finding(NamedTuple):
    """One rule violation at a source location."""

    path: str  #: repo-relative, ``/``-separated
    line: int  #: 1-based; 0 = whole file
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


#: ``# repro: allow[rule-a, rule-b] reason`` (reason mandatory).
_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]([^\n]*)")


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


def unsuppressed(root: Path, findings: list[Finding]) -> list[Finding]:
    """``findings`` minus the ones a pragma in their file covers, sorted."""
    cache: dict[str, Pragmas] = {}
    live = []
    for finding in findings:
        if finding.path not in cache:
            path = Path(root) / finding.path
            cache[finding.path] = (
                parse_pragmas(path.read_text()) if path.is_file() else Pragmas()
            )
        if not cache[finding.path].suppresses(finding.rule, finding.line):
            live.append(finding)
    return sorted(live)


def pragma_findings(root: Path, paths) -> list[Finding]:
    """``statics-pragma``: every pragma in ``paths`` that gives no reason."""
    return [
        Finding(
            Path(path).relative_to(root).as_posix(),
            line,
            "statics-pragma",
            "suppression pragma has no reason; write "
            "'# repro: allow[rule-id] why this is safe'",
        )
        for path in sorted(paths)
        for line in parse_pragmas(Path(path).read_text()).missing_reason
    ]


def render(findings: list[Finding]) -> str:
    """The failure message of a live-tree test: one finding a line."""
    return "\n".join(map(str, findings))
