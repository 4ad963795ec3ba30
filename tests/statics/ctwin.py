"""The C-twin drift check (``ctwin-*`` rules).

``_event_core_ext.c`` is a hand-written, line-for-line transcription
of ``_event_core.py``; the two communicate over a packed
struct-of-arrays ABI.  A layout edit that forgets one twin would
otherwise be caught dynamically — *if* a digest happens to change.
This check fails before any simulation runs by cross-checking,
statically:

``ctwin-abi``
    ``EXT_ABI = N`` in the Python module against ``#define EXT_ABI N``
    in the C file.  (The ABI gate at import time only *rejects stale
    builds*; it cannot catch the twin edit that forgot to bump either
    side.)
``ctwin-layout``
    The ``ARRAYS`` / ``ISCALARS`` / ``FSCALARS`` packing tuples (the
    ``A_*`` / ``I_*`` / ``F_*`` index constants) plus the replay
    scalar packs (``RI_*`` / ``RF_*``): names, order and count must
    match the C ``enum`` blocks exactly (the C sentinel ``*_COUNT``
    tail must equal the Python tuple length).
``ctwin-kinds``
    The tape event-kind codes: the ``_T_*`` constants declared in
    ``vector_sim.py``, the kinds the Python core records
    (``rec(tcols, K, ...)``) and replays (``kind == K``), and the
    kinds the C core writes (``tk[...] = K``) and dispatches
    (``kind == K``) must all agree.  Each twin has exactly one replay
    body (``_replay_py`` in Python, ``replay_many`` in C), so each
    twin's dispatch must test every declared kind explicitly but at
    most one, which rides the final ``else`` branch — a dropped
    dispatch arm is caught in either twin.
``ctwin-missing``
    One of the three source files is absent.

The Python side is parsed with ``ast``; the C side with targeted
regexes over the comment-stripped text (the file is hand-written to a
fixed idiom precisely so this stays checkable).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from .pragmas import Finding

#: The three twin-contract source files, package-relative.
PY_CORE = "gpusim/_event_core.py"
C_CORE = "gpusim/_event_core_ext.c"
VECTOR_SIM = "gpusim/vector_sim.py"

#: Packing groups by constant-name prefix (underscore-terminated).
GROUP_PREFIXES = ("A", "I", "F", "RI", "RF")


@dataclass
class PySide:
    """What ``ast`` extracts from the Python twin."""

    abi: int | None = None
    abi_line: int = 0
    groups: dict[str, list[str]] = field(default_factory=dict)
    group_lines: dict[str, int] = field(default_factory=dict)
    recorded_kinds: set[int] = field(default_factory=set)
    replayed_kinds: set[int] = field(default_factory=set)


@dataclass
class CSide:
    """What the targeted regexes extract from the C twin."""

    abi: int | None = None
    enums: dict[str, list[str]] = field(default_factory=dict)
    written_kinds: set[int] = field(default_factory=set)
    dispatched_kinds: set[int] = field(default_factory=set)


def _prefix_of(name: str) -> str | None:
    head = name.split("_", 1)[0]
    return head if head in GROUP_PREFIXES else None


def parse_py_core(source: str) -> PySide:
    """Extract ABI, packing tuples and kind usage from the Python core."""
    side = PySide()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and target.id == "EXT_ABI"
                and isinstance(node.value, ast.Constant)
            ):
                side.abi = node.value.value
                side.abi_line = node.lineno
            elif isinstance(target, ast.Tuple) and all(
                isinstance(e, ast.Name) for e in target.elts
            ):
                names = [e.id for e in target.elts]
                prefix = _prefix_of(names[0])
                if prefix and all(_prefix_of(n) == prefix for n in names):
                    side.groups[prefix] = names
                    side.group_lines[prefix] = node.lineno
        elif isinstance(node, ast.Call):
            # rec(tcols, K, ...) — the Python core's tape writes.
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "rec"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, int)
            ):
                side.recorded_kinds.add(node.args[1].value)
        elif isinstance(node, ast.Compare):
            # kind == K — the replay dispatch.
            if (
                isinstance(node.left, ast.Name)
                and node.left.id == "kind"
                and len(node.ops) == 1
                and isinstance(node.ops[0], ast.Eq)
                and isinstance(node.comparators[0], ast.Constant)
                and isinstance(node.comparators[0].value, int)
            ):
                side.replayed_kinds.add(node.comparators[0].value)
    return side


def parse_t_constants(vector_sim_source: str) -> dict[str, int]:
    """``_T_*`` event-kind constants declared in ``vector_sim.py``."""
    kinds: dict[str, int] = {}
    for node in ast.parse(vector_sim_source).body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith("_T_")
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            kinds[node.targets[0].id] = node.value.value
    return kinds


_C_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
_C_ABI = re.compile(r"#define\s+EXT_ABI\s+(\d+)")
_C_ENUM = re.compile(r"enum\s*\{([^}]*)\}")
_C_KIND_WRITE = re.compile(r"\btk\[\w+\]\s*=\s*(\d+)")
_C_KIND_DISPATCH = re.compile(r"\bkind\s*==\s*(\d+)")


def parse_c_core(source: str) -> CSide:
    """Extract ABI, enum blocks and kind usage from the C twin."""
    side = CSide()
    stripped = _C_COMMENT.sub(" ", source)
    abi = _C_ABI.search(stripped)
    if abi:
        side.abi = int(abi.group(1))
    for block in _C_ENUM.findall(stripped):
        names = [
            part.split("=")[0].strip()
            for part in block.split(",")
            if part.strip()
        ]
        prefix = _prefix_of(names[0]) if names else None
        if prefix is None:
            continue
        # Drop the C-only sentinel (A_COUNT, I_COUNT, ...).
        if names[-1] == f"{prefix}_COUNT":
            names = names[:-1]
        side.enums[prefix] = names
    side.written_kinds = {int(k) for k in _C_KIND_WRITE.findall(stripped)}
    side.dispatched_kinds = {
        int(k) for k in _C_KIND_DISPATCH.findall(stripped)
    }
    return side


def compare_twins(
    py_source: str,
    c_source: str,
    vector_sim_source: str,
    py_path: str = PY_CORE,
    c_path: str = C_CORE,
) -> list[Finding]:
    """All drift findings between the two event-core twins."""
    py = parse_py_core(py_source)
    c = parse_c_core(c_source)
    t_constants = parse_t_constants(vector_sim_source)
    findings: list[Finding] = []

    def error(rule: str, path: str, line: int, message: str) -> None:
        findings.append(Finding(path, line, rule, message))

    # -- ABI -----------------------------------------------------------
    if py.abi is None:
        error("ctwin-abi", py_path, 0, "EXT_ABI constant not found")
    if c.abi is None:
        error("ctwin-abi", c_path, 0, "#define EXT_ABI not found")
    if py.abi is not None and c.abi is not None and py.abi != c.abi:
        error(
            "ctwin-abi",
            c_path,
            0,
            f"C EXT_ABI is {c.abi} but Python EXT_ABI is {py.abi}; "
            "the twins disagree on the pack layout version",
        )

    # -- packing layout ------------------------------------------------
    for prefix in GROUP_PREFIXES:
        py_names = py.groups.get(prefix)
        c_names = c.enums.get(prefix)
        label = f"{prefix}_* pack"
        if py_names is None:
            error(
                "ctwin-layout", py_path, 0, f"{label}: Python tuple not found"
            )
            continue
        if c_names is None:
            error("ctwin-layout", c_path, 0, f"{label}: C enum not found")
            continue
        if py_names != c_names:
            line = py.group_lines.get(prefix, 0)
            if len(py_names) != len(c_names):
                detail = (
                    f"Python has {len(py_names)} slots, C has "
                    f"{len(c_names)}"
                )
            else:
                diffs = [
                    f"slot {i}: Python {a!r} vs C {b!r}"
                    for i, (a, b) in enumerate(zip(py_names, c_names))
                    if a != b
                ]
                detail = "; ".join(diffs)
            error(
                "ctwin-layout",
                py_path,
                line,
                f"{label} drifted between the twins ({detail}); every "
                "layout edit must change _event_core.py and "
                "_event_core_ext.c together and bump EXT_ABI",
            )

    # -- event kinds -----------------------------------------------------
    declared = set(t_constants.values())
    if not declared:
        error(
            "ctwin-kinds",
            VECTOR_SIM,
            0,
            "no _T_* event-kind constants found in vector_sim.py",
        )
    checks = (
        ("Python core records", py.recorded_kinds, py_path),
        ("Python replay dispatches", py.replayed_kinds, py_path),
        ("C core writes", c.written_kinds, c_path),
        ("C replay dispatches", c.dispatched_kinds, c_path),
    )
    for what, kinds, path in checks:
        unknown = kinds - declared
        if unknown:
            error(
                "ctwin-kinds",
                path,
                0,
                f"{what} kind(s) {sorted(unknown)} not declared by the "
                f"_T_* constants ({sorted(declared)})",
            )
    # One replay body per twin: its dispatch chain must test every
    # declared kind but the one its final `else` branch handles.
    replays = (
        ("Python", py.replayed_kinds, py_path),
        ("C", c.dispatched_kinds, c_path),
    )
    for twin, kinds, path in replays:
        undispatched = sorted(declared - kinds)
        if len(undispatched) > 1:
            error(
                "ctwin-kinds",
                path,
                0,
                f"{twin} replay never tests kind(s) {undispatched}; at "
                "most one kind may be handled by the final else branch",
            )
    if declared and c.written_kinds and declared != c.written_kinds:
        missing = sorted(declared - c.written_kinds)
        if missing:
            error(
                "ctwin-kinds",
                c_path,
                0,
                f"C core never writes kind(s) {missing} that the "
                "Python core declares — the twins' tapes would diverge",
            )
    if (
        py.recorded_kinds
        and c.written_kinds
        and py.recorded_kinds != c.written_kinds
    ):
        error(
            "ctwin-kinds",
            c_path,
            0,
            f"recorded kinds differ: Python writes "
            f"{sorted(py.recorded_kinds)}, C writes "
            f"{sorted(c.written_kinds)}",
        )

    return findings


def check_twins(root: Path, package: str = "repro") -> list[Finding]:
    """Drift findings for the twins under ``root/src/<package>``."""
    package_root = Path(root) / "src" / package
    paths = [package_root / name for name in (PY_CORE, C_CORE, VECTOR_SIM)]
    rel = [path.relative_to(root).as_posix() for path in paths]
    missing = [
        Finding(name, 0, "ctwin-missing", "event-core twin source file is missing")
        for path, name in zip(paths, rel)
        if not path.is_file()
    ]
    if missing:
        return missing
    return compare_twins(
        *(path.read_text() for path in paths), py_path=rel[0], c_path=rel[1]
    )
