"""The ``determinism-lint`` pass.

Every salted module feeds digest-pinned results: the golden Fig. 7/9
/11 digests, the canonical sweep digest and the relaxed-engine pins
all assume a design point's bytes depend only on its parameters.
This pass flags the constructs that historically break that promise:

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

Scope: the union of every experiment's declared ``salt_modules`` and
the modules the salt-completeness pass proves reachable (so a module
cannot dodge the lint by being missing from the salts it should be
in).  Deliberate uses carry ``# repro: allow[rule] reason`` pragmas.
"""

from __future__ import annotations

import ast

from repro.statics.framework import Context, Finding, Pass, Severity
from repro.statics.imports import reachable, salt_relevant
from repro.statics.salts import (
    EXPERIMENTS_MODULE,
    _rebased_exempt,
    function_imports,
    parse_registrations,
)

#: Environment variables salted modules may read: they select
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

#: Packages linted in full even where salt reachability does not reach
#: them.  The advisor service (``repro.serve``) computes digest-pinned
#: answers from a long-running process, so *all* of it must be free of
#: wall-clock/randomness/ordering hazards — not just the two modules
#: the ``serve.advice`` experiment declares in its salts.
EXTRA_SCOPE_PACKAGES: tuple[str, ...] = ("repro.serve",)

#: Modules inside the extra scope exempt from the lint: the batching
#: clock is the service's single sanctioned wall-clock seam (tests
#: replace it with virtual time; answers never depend on it).
EXTRA_SCOPE_EXEMPT: tuple[str, ...] = ("repro.serve.clock",)


def _rebased(name: str, ctx: Context) -> str:
    """Rebase a ``repro.``-rooted dotted name onto a fixture package."""
    if ctx.package == "repro":
        return name
    return ctx.package + name[len("repro"):]


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


def lint_module(
    ctx: Context,
    module: str,
    sanctioned_env: tuple[str, ...] = SANCTIONED_ENV,
) -> list[Finding]:
    """All determinism findings of one module."""
    path = ctx.module_path(module)
    if path is None:
        return []
    tree = ctx.tree(path)
    aliases = _import_aliases(tree)
    parents = _parents(tree)
    rel = ctx.rel(path)
    findings: list[Finding] = []

    def emit(rule: str, node: ast.AST, message: str) -> None:
        findings.append(
            Finding(
                rule=rule,
                severity=Severity.ERROR,
                path=rel,
                line=getattr(node, "lineno", 0),
                message=message,
            )
        )

    def check_env_key(node: ast.AST, key: ast.expr | None, how: str) -> None:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            if key.value not in sanctioned_env:
                emit(
                    "det-env",
                    node,
                    f"{how} reads {key.value!r}, which is not in the "
                    "sanctioned list "
                    f"({', '.join(sanctioned_env)}); an env var that "
                    "changes results is an invisible cache axis",
                )
        else:
            emit(
                "det-env",
                node,
                f"{how} with a dynamic key; only the sanctioned "
                "variables may be read in salted modules",
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


def determinism_scope(ctx: Context) -> list[str]:
    """Salted-or-should-be-salted modules: declared union reachable."""
    exempt = _rebased_exempt(ctx)
    experiments_module = (
        EXPERIMENTS_MODULE
        if ctx.package == "repro"
        else f"{ctx.package}.engine.experiments"
    )
    scope: set[str] = set()
    for registration in parse_registrations(ctx, experiments_module):
        scope.update(
            module
            for module in registration.salt_modules
            if ctx.module_path(module) is not None
        )
        roots = function_imports(
            ctx, experiments_module, registration.root_functions
        )
        reach = reachable(ctx, roots, exempt)
        scope.update(salt_relevant(ctx, reach, exempt))
    clock_exempt = {_rebased(name, ctx) for name in EXTRA_SCOPE_EXEMPT}
    for package in EXTRA_SCOPE_PACKAGES:
        prefix = _rebased(package, ctx)
        scope.update(
            module
            for module in ctx.modules()
            if (module == prefix or module.startswith(prefix + "."))
            and module not in clock_exempt
        )
    return sorted(scope)


class DeterminismLintPass(Pass):
    name = "determinism-lint"
    description = (
        "salted modules are free of nondeterminism hazards that would "
        "break golden digests"
    )
    rules = (
        "det-set-iter",
        "det-unsorted-dir",
        "det-time",
        "det-random",
        "det-id-order",
        "det-env",
    )

    def __init__(
        self,
        modules: list[str] | None = None,
        sanctioned_env: tuple[str, ...] = SANCTIONED_ENV,
    ):
        self.modules = modules
        self.sanctioned_env = sanctioned_env

    def run(self, ctx: Context) -> list[Finding]:
        modules = self.modules
        if modules is None:
            modules = determinism_scope(ctx)
        findings: list[Finding] = []
        for module in modules:
            findings.extend(lint_module(ctx, module, self.sanctioned_env))
        return findings
