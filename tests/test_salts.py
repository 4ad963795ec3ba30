"""Code salts computed from the static import graph.

The salt of every cache key hashes the closure of a few root modules
(:mod:`repro.engine.salts`), so no declared module list can drift.
These tests pin the graph's policies on a fixture package, check the
line-scan graph against a whole-file parse, cross-check each
experiment closure and each artifact kind's closure against what a run
really imports, and pin that salts depend neither on hash
randomisation nor on where the package is installed.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.registry import experiment_names, get_experiment
from repro.engine.salts import (
    ImportGraph,
    code_salt,
    experiment_roots,
    package_graph,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: The CI smoke scale (``--scale``): every point is tiny.
CI_SCALE = 3.0517578125e-05

_FIXTURE = {
    "fixpkg/__init__.py": '"""Fixture package."""\n',
    "fixpkg/engine/__init__.py": "",
    "fixpkg/engine/cache.py": "from fixpkg import hidden\n",
    "fixpkg/hidden.py": "",
    "fixpkg/study.py": (
        '"""Study."""\n'
        "from fixpkg import helper\n"
        "from fixpkg.engine.cache import VERSION\n"
        "\n"
        "\n"
        "def run_row(point):\n"
        "    from fixpkg.sub.lazy import (\n"
        "        late,\n"
        "    )\n"
        "    from .good import base_row\n"
        "\n"
        "    return helper, VERSION, late, base_row\n"
    ),
    "fixpkg/helper.py": "",
    "fixpkg/good.py": "def base_row(point):\n    return point\n",
    "fixpkg/sub/__init__.py": (
        '"""Re-export-only front door."""\n'
        "from fixpkg.sub.impl import thing\n"
        "\n"
        '__all__ = ["thing"]\n'
    ),
    "fixpkg/sub/impl.py": "thing = 1\n",
    "fixpkg/sub/lazy.py": "late = 1\n",
    "fixpkg/rel/__init__.py": "from .core import x\nfrom .. import helper\n",
    "fixpkg/rel/core.py": "x = 1\n",
    "fixpkg/rel/deep.py": "from ..good import base_row\nfrom . import core\n",
    "fixpkg/scan.py": (
        '"""Example:\n\n    from fixpkg import hidden\n"""\n'
        "import os\n"
        "import fixpkg.helper, \\\n"
        "    fixpkg.good\n"
        "x = 'from fixpkg import nothing'\n"
    ),
    "fixpkg/cut.py": (
        'DOC = """\nfrom fixpkg import (\n"""\n'
        "from fixpkg import helper\n"
    ),
}


@pytest.fixture()
def graph(tmp_path) -> ImportGraph:
    for rel, text in _FIXTURE.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    return ImportGraph(tmp_path, "fixpkg", ("fixpkg.engine",))


def test_module_imports_resolves_submodule_and_attribute_forms(graph):
    # `from pkg import submodule` binds the submodule alone; an
    # attribute import binds its module; function-level, parenthesised
    # and relative imports all count.
    assert set(graph.imports("fixpkg.study")) == {
        "fixpkg.helper",
        "fixpkg.engine.cache",
        "fixpkg.sub.lazy",
        "fixpkg.good",
    }


def test_relative_imports_resolve_from_modules_and_inits(graph):
    # Level 1 in a package __init__ is the package itself; elsewhere it
    # is the module's parent package.
    assert graph.imports("fixpkg.rel") == ("fixpkg.rel.core", "fixpkg.helper")
    assert graph.imports("fixpkg.rel.deep") == ("fixpkg.good", "fixpkg.rel.core")


def test_line_scan_joins_continued_statements_and_skips_foreign_imports(graph):
    # A backslash continuation is one statement; `import os` and an
    # import inside a string assignment bind nothing in the package,
    # while an import in a docstring example over-approximates to an
    # edge.
    assert set(graph.imports("fixpkg.scan")) == {
        "fixpkg.hidden",
        "fixpkg.helper",
        "fixpkg.good",
    }


def test_a_statement_cut_short_falls_back_to_a_whole_file_parse(graph):
    # The scan reads the opening parenthesis inside DOC as the start of
    # a statement that never closes; the whole-file parse recovers the
    # one real import.
    assert graph.imports("fixpkg.cut") == ("fixpkg.helper",)


def test_package_inits_are_hashed(graph):
    # An __init__ is a module like any other: the docstring-only root
    # is hashed.
    assert graph.closure(["fixpkg.helper"]) == ("fixpkg", "fixpkg.helper")


def test_reachability_follows_an_init_s_imports(graph):
    # Importing fixpkg.sub.lazy runs fixpkg.sub's __init__, whose own
    # import reaches impl.
    closure = graph.closure(["fixpkg.sub.lazy"])
    assert closure == ("fixpkg", "fixpkg.sub", "fixpkg.sub.impl", "fixpkg.sub.lazy")


def test_exempt_modules_are_boundaries(graph):
    # The exempt engine is neither hashed nor walked: fixpkg.hidden,
    # reached only through it, stays out.  Roots outside the package
    # are ignored.
    assert graph.closure(["fixpkg.study", "elsewhere.module"]) == (
        "fixpkg",
        "fixpkg.good",
        "fixpkg.helper",
        "fixpkg.study",
        "fixpkg.sub",
        "fixpkg.sub.impl",
        "fixpkg.sub.lazy",
    )
    # An exempt root still runs the package root's __init__.
    assert graph.closure(["fixpkg.engine.cache"]) == ("fixpkg",)


def test_a_closure_holds_only_the_code_its_result_runs():
    """An experiment's roots are the modules its references name.  The
    Fig. 12 UM model calls no codec, profiler or simulator, so editing
    one cannot invalidate its cached results."""
    assert experiment_roots(get_experiment("perf.fig11")) == (
        "repro.analysis.perf_study",
    )
    closure = package_graph().closure(experiment_roots(get_experiment("um.fig12")))
    assert not [
        module
        for module in closure
        if module.startswith(("repro.compression", "repro.gpusim", "repro.core"))
    ], closure


def test_a_root_outside_the_package_adds_nothing_to_a_salt():
    assert code_salt(("numpy",)) == code_salt(())
    assert code_salt(("repro.units",)) != code_salt(())


def test_line_scan_sees_every_edge_a_whole_file_parse_sees():
    """The scan may over-approximate (an import in a docstring is an
    edge) but never miss an edge."""
    graph = package_graph()
    fresh = ImportGraph(SRC)
    for module, path in graph.paths.items():
        nodes = list(ast.walk(ast.parse(path.read_text())))
        parsed = set(fresh._resolve(module, nodes))
        assert parsed <= set(graph.imports(module)), module


# ---------------------------------------------------------------------------
# Runtime cross-check.  Limit: a fresh interpreter has already imported
# what registering the experiments imports (PRELOADED salt-relevant
# modules: the root, ``repro.rng``, and the claims ledger with its
# package) before the sys.modules snapshot, so those are not seen.
# ---------------------------------------------------------------------------
#: Salt-relevant modules the registry import loads, measured.
PRELOADED = 4

_PRELOAD = """
import json, sys
from repro.engine.registry import experiment_names

experiment_names()
print(json.dumps(sorted(sys.modules)))
"""

_RUN = """
import json, sys
from dataclasses import replace
from repro.engine.registry import experiment_names, get_experiment, resolve

name, scale = sys.argv[1], float(sys.argv[2])
experiment_names()  # registers the built-in experiments
before = set(sys.modules)
if name in ARTIFACT_KINDS:
    from repro.workloads.snapshots import SnapshotConfig

    config = SnapshotConfig(scale=scale)
if name == "profile.tensor":
    from repro.core.profiler import profile_tensor

    profile_tensor("VGG16", config)
elif name == "profile.free":
    from repro.compression.bpc import BPCCompressor
    from repro.core.profiler import free_bytes

    free_bytes("VGG16", config, BPCCompressor())
elif name == "profile.entries":
    from repro.core.profiler import entry_state_tensor

    entry_state_tensor("VGG16", config)
elif name == "trace.columnar":
    from repro.workloads.traces import TraceConfig, generate_trace

    generate_trace("VGG16", TraceConfig(snapshot_config=config))
elif name == "sim.tape":
    from repro.analysis.perf_study import prepare_tape
    from repro.gpusim.config import scaled_config
    from repro.workloads.traces import TraceConfig

    machine = scaled_config()
    trace_config = TraceConfig(
        sm_count=machine.sm_count,
        warps_per_sm=machine.warps_per_sm,
        snapshot_config=config,
    )
    prepare_tape("VGG16", machine, trace_config, config)
else:
    experiment = get_experiment(name)
    params = experiment.defaults()
    for key, value in params.items():
        if key in ("benchmarks", "networks"):
            params[key] = value[:1]
        elif hasattr(value, "snapshot_config"):
            params[key] = replace(
                value, snapshot_config=replace(value.snapshot_config, scale=scale)
            )
        elif hasattr(value, "scale"):
            params[key] = replace(value, scale=scale)
    point = experiment.expand(params)[0]
    if experiment.plan_point is not None:
        resolve(experiment.plan_point)(point)
    resolve(experiment.run_point)(**point)
print(json.dumps(sorted(set(sys.modules) - before)))
"""

#: The roots each artifact kind's cache key salts with.
ARTIFACT_ROOTS = {
    "profile.tensor": ("repro.core.profiler", "repro.compression.bpc"),
    "profile.free": ("repro.core.profiler", "repro.compression.bpc"),
    "profile.entries": ("repro.core.profiler",),
    "trace.columnar": ("repro.workloads.traces",),
    "sim.tape": ("repro.gpusim.vector_sim", "repro.analysis.perf_study"),
}


def _env(tmp_path, pythonpath=SRC, **extra) -> dict:
    env = dict(os.environ, PYTHONPATH=str(pythonpath), **extra)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return env


def _builtin_names() -> list[str]:
    """The registered experiments, minus ones other tests register."""
    return [
        name
        for name in experiment_names()
        if get_experiment(name).run_point.startswith("repro.")
    ]


def _closure_representatives() -> dict[str, tuple[str, ...]]:
    """One experiment per distinct closure, plus every artifact kind."""
    graph = package_graph()
    chosen: dict[tuple[str, ...], str] = {}
    for name in _builtin_names():
        closure = graph.closure(experiment_roots(get_experiment(name)))
        chosen.setdefault(closure, name)
    representatives = {name: closure for closure, name in chosen.items()}
    for kind, roots in ARTIFACT_ROOTS.items():
        representatives[kind] = graph.closure(roots)
    return representatives


_REPRESENTATIVES = _closure_representatives()


def test_the_registry_import_hides_few_modules_from_the_cross_check(tmp_path):
    """The blind spot of the runtime cross-check cannot grow silently."""
    graph = package_graph()
    proc = subprocess.run(
        [sys.executable, "-c", _PRELOAD],
        capture_output=True,
        text=True,
        env=_env(tmp_path),
        cwd=tmp_path,
        check=True,
    )
    preloaded = [
        module
        for module in json.loads(proc.stdout)
        if module in graph.paths and not graph.is_exempt(module)
    ]
    assert len(preloaded) <= PRELOADED, preloaded


def test_there_are_seven_experiment_closures():
    assert len(_REPRESENTATIVES) == 7 + len(ARTIFACT_ROOTS)


@pytest.mark.parametrize("name", sorted(_REPRESENTATIVES))
def test_every_module_a_run_imports_is_in_its_closure(tmp_path, name):
    graph = package_graph()
    closure = _REPRESENTATIVES[name]
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"ARTIFACT_KINDS = {sorted(ARTIFACT_ROOTS)!r}\n" + _RUN,
            name,
            str(CI_SCALE),
        ],
        capture_output=True,
        text=True,
        env=_env(tmp_path),
        cwd=tmp_path,
        check=True,
    )
    imported = json.loads(proc.stdout.splitlines()[-1])
    unsalted = [
        module
        for module in imported
        if module in graph.paths
        and not graph.is_exempt(module)
        and module not in closure
    ]
    assert unsalted == [], f"{name} imports modules outside its salt"


# ---------------------------------------------------------------------------
# Salt stability.
# ---------------------------------------------------------------------------
_SALTS = """
import json
import repro
from repro.compression.bpc import BPCCompressor
from repro.core.profiler import (
    entry_state_cache_key,
    free_cache_key,
    tensor_cache_key,
)
from repro.engine.registry import experiment_names, get_experiment
from repro.engine.salts import experiment_salt
from repro.gpusim.config import scaled_config
from repro.gpusim.vector_sim import tape_cache_key
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, trace_cache_key

config = SnapshotConfig()
salts = {name: experiment_salt(get_experiment(name)) for name in experiment_names()}
salts["profile.tensor"] = tensor_cache_key("VGG16", config, BPCCompressor()).digest
salts["profile.free"] = free_cache_key("VGG16", config, BPCCompressor()).digest
salts["profile.entries"] = entry_state_cache_key("VGG16", config, 0).digest
salts["trace.columnar"] = trace_cache_key("VGG16", TraceConfig()).digest
salts["sim.tape"] = tape_cache_key("VGG16", TraceConfig(), config, scaled_config()).digest
print(repro.__file__)
print(json.dumps(salts, sort_keys=True))
"""


def _salts(tmp_path, pythonpath, **env) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, "-c", _SALTS],
        capture_output=True,
        text=True,
        env=_env(tmp_path, pythonpath, **env),
        cwd=tmp_path,
        check=True,
    )
    where, salts = proc.stdout.splitlines()[-2:]
    return where, json.loads(salts)


@pytest.fixture(scope="module")
def reference_salts(tmp_path_factory) -> dict:
    _, salts = _salts(tmp_path_factory.mktemp("salts"), SRC, PYTHONHASHSEED="1")
    assert len(salts) == len(_builtin_names()) + len(ARTIFACT_ROOTS)
    return salts


def test_salts_ignore_the_hash_seed(tmp_path, reference_salts):
    _, reseeded = _salts(tmp_path, SRC, PYTHONHASHSEED="2")
    assert reseeded == reference_salts


def test_salts_ignore_the_install_location(tmp_path, reference_salts):
    copy = tmp_path / "elsewhere"
    shutil.copytree(
        SRC / "repro",
        copy / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "*.so"),
    )
    where, moved = _salts(tmp_path, copy, PYTHONHASHSEED="1")
    assert Path(where).is_relative_to(copy)
    assert moved == reference_salts
