"""The determinism lint (``det-*`` rules).

Every salt-relevant module can feed digest-pinned results: the golden
Fig. 7/9/11 digests, the canonical sweep digest and the relaxed-engine
pins all assume a design point's bytes depend only on its parameters.
This lint flags the constructs that historically break that promise:

``det-set-iter``
    Iterating (or materialising) a ``set``/``frozenset`` — element
    order varies across processes under hash randomisation.  Wrap in
    ``sorted(...)``.
``det-unsorted-dir``
    ``os.listdir`` / ``os.scandir`` / ``glob`` / ``Path.iterdir`` /
    ``Path.glob``/``rglob`` without an immediately enclosing
    ``sorted(...)`` — directory order is filesystem-dependent.
``det-time``
    Wall clocks (``time.*``, ``datetime.now`` and friends) — results
    must not depend on when they were computed.
``det-random``
    Unseeded randomness: any stdlib ``random`` module call (a seeded
    ``random.Random(seed)`` instance is fine) and global
    ``numpy.random`` calls (``default_rng(seed)`` with an explicit
    seed is fine; named streams live in :mod:`repro.rng`).
``det-id-order``
    ``sorted(..., key=id)`` / ``.sort(key=id)`` — ``id()`` is an
    address, different every run.
``det-env``
    Environment reads outside the sanctioned list
    (:data:`SANCTIONED_ENV`) — an env var that changes results is an
    invisible cache axis.

Scope: every salt-relevant module of the package, whether or not a
salt reaches it today: all but exempt infrastructure
(:class:`repro.engine.salts.ImportGraph`).  The
advisor's wall-clock seam (:data:`CLOCK_SEAM`) is left out.
Deliberate uses carry ``# repro: allow[rule] reason`` pragmas.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.engine.salts import DEFAULT_EXEMPT, ImportGraph

from .pragmas import Finding

#: Environment variables salt-relevant modules may read: they select
#: *equivalent implementations or capacities*, never values.
SANCTIONED_ENV: tuple[str, ...] = (
    "REPRO_NO_EXT",  # forces the bit-identical pure-Python event core
    "REPRO_CACHE_DIR",  # result-cache location, not content
)

_TIME_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_DIR_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_DIR_METHODS = {"iterdir", "glob", "rglob"}

#: The one salt-relevant module exempt from the lint: the advisor's
#: batching clock is the service's sanctioned wall-clock seam (tests
#: replace it with virtual time; answers never depend on it).
CLOCK_SEAM = "repro.serve.clock"


def _rebased(name: str, package: str) -> str:
    """Rebase a ``repro.``-rooted dotted name onto a fixture package."""
    return package + name[len("repro"):]


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, for every import in the file."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _dotted(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve an expression to a dotted origin path, if possible."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _is_setish(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _wrapped_in_sorted(node: ast.AST, parents: dict) -> bool:
    parent = parents.get(node)
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id == "sorted"
        and node in parent.args
    )


def _key_uses_id(key: ast.expr) -> bool:
    if isinstance(key, ast.Name) and key.id == "id":
        return True
    if isinstance(key, ast.Lambda):
        return any(
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id == "id"
            for inner in ast.walk(key.body)
        )
    return False


def lint_source(source: str, rel: str) -> list[Finding]:
    """All determinism findings of one module's source text."""
    tree = ast.parse(source, filename=rel)
    aliases = _import_aliases(tree)
    parents = _parents(tree)
    findings: list[Finding] = []

    def emit(rule: str, node: ast.AST, message: str) -> None:
        findings.append(
            Finding(rel, getattr(node, "lineno", 0), rule, message)
        )

    def check_env_key(node: ast.AST, key: ast.expr | None, how: str) -> None:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            if key.value not in SANCTIONED_ENV:
                emit(
                    "det-env",
                    node,
                    f"{how} reads {key.value!r}, which is not in the "
                    "sanctioned list "
                    f"({', '.join(SANCTIONED_ENV)}); an env var that "
                    "changes results is an invisible cache axis",
                )
        else:
            emit(
                "det-env",
                node,
                f"{how} with a dynamic key; only the sanctioned "
                "variables may be read in salt-relevant modules",
            )

    for node in ast.walk(tree):
        # -- set iteration / materialisation --------------------------
        iterables: list[ast.expr] = []
        if isinstance(node, ast.For):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple", "enumerate") and node.args:
                iterables.append(node.args[0])
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
        ):
            iterables.append(node.args[0])
        for iterable in iterables:
            if _is_setish(iterable):
                emit(
                    "det-set-iter",
                    iterable,
                    "iteration over a set/frozenset has "
                    "hash-randomised order; wrap in sorted(...)",
                )

        if not isinstance(node, (ast.Call, ast.Subscript, ast.Compare)):
            continue

        # -- environment reads ----------------------------------------
        if isinstance(node, ast.Subscript):
            if _dotted(node.value, aliases) == "os.environ":
                check_env_key(node, node.slice, "os.environ[...]")
            continue
        if isinstance(node, ast.Compare):
            if (
                len(node.ops) == 1
                and isinstance(node.ops[0], (ast.In, ast.NotIn))
                and _dotted(node.comparators[0], aliases) == "os.environ"
            ):
                check_env_key(node, node.left, "os.environ membership test")
            continue

        dotted = _dotted(node.func, aliases)

        if dotted == "os.getenv" and node.args:
            check_env_key(node, node.args[0], "os.getenv")
            continue
        if dotted == "os.environ.get" and node.args:
            check_env_key(node, node.args[0], "os.environ.get")
            continue

        # -- directory listings ---------------------------------------
        is_dir_call = dotted in _DIR_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DIR_METHODS
            and dotted != "glob.glob"  # already covered above
        )
        if is_dir_call:
            if not _wrapped_in_sorted(node, parents):
                emit(
                    "det-unsorted-dir",
                    node,
                    "directory listing order is filesystem-dependent; "
                    "wrap the call in sorted(...)",
                )
            continue

        # -- wall clocks ----------------------------------------------
        if dotted in _TIME_CALLS:
            emit(
                "det-time",
                node,
                f"{dotted}() makes results depend on when they were "
                "computed",
            )
            continue

        # -- unseeded randomness --------------------------------------
        if dotted and dotted.split(".")[0] == "random":
            if not (dotted == "random.Random" and node.args):
                emit(
                    "det-random",
                    node,
                    f"{dotted}() draws from the unseeded global "
                    "stdlib RNG; use a named repro.rng stream",
                )
            continue
        if dotted and dotted.startswith("numpy.random."):
            tail = dotted[len("numpy.random."):]
            seeded_factory = tail in (
                "default_rng",
                "Generator",
                "SeedSequence",
            ) and (node.args or node.keywords)
            if not seeded_factory:
                emit(
                    "det-random",
                    node,
                    f"{dotted}() uses numpy's global RNG; derive a "
                    "generator from a named repro.rng stream instead",
                )
            continue

        # -- id()-derived ordering ------------------------------------
        is_sort = (
            isinstance(node.func, ast.Name) and node.func.id == "sorted"
        ) or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        )
        if is_sort:
            for keyword in node.keywords:
                if keyword.arg == "key" and _key_uses_id(keyword.value):
                    emit(
                        "det-id-order",
                        node,
                        "sorting by id() orders by memory address, "
                        "which differs every run",
                    )
    return findings


def _graph(root: Path, package: str) -> ImportGraph:
    exempt = tuple(_rebased(prefix, package) for prefix in DEFAULT_EXEMPT)
    return ImportGraph(Path(root) / "src", package, exempt)


def determinism_scope(root: Path, package: str = "repro") -> list[str]:
    """Every salt-relevant module of the package but the clock seam."""
    graph = _graph(root, package)
    clock = _rebased(CLOCK_SEAM, package)
    return [
        module
        for module in graph.paths
        if module != clock and not graph.is_exempt(module)
    ]


def lint_tree(
    root: Path, package: str = "repro", modules: list[str] | None = None
) -> list[Finding]:
    """Lint ``modules`` (default: :func:`determinism_scope`) of the
    package under ``root/src``; paths are relative to ``root``."""
    paths = _graph(root, package).paths
    if modules is None:
        modules = determinism_scope(root, package)
    return [
        finding
        for module in modules
        for finding in lint_source(
            paths[module].read_text(),
            paths[module].relative_to(root).as_posix(),
        )
    ]
