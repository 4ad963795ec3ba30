"""The benchmark's view of the program still resolves.

``bench/`` drives the program from outside: ``bench/tracer.py`` wraps
the functions it names in ``TARGETS`` when their modules import, and
``bench/child.py`` reads the work counters in ``COUNTERS`` and the
``ExecutionReport`` fields of a planned sweep.  A rename in ``src/``
that one of those names misses only shows when the benchmark runs —
the traced run dies with a ``KeyError`` inside the import hook — so
this pins every name here, in tier-1.  Nothing under ``bench/`` is
edited; its modules are imported read-only.
"""

import ast
import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from repro.engine.planner import ExecutionReport, SweepResult

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """``bench/child.py`` and ``bench/tracer.py``, imported as the
    benchmark imports them (``tracer`` does ``from child import …``)."""
    saved_path = sys.path[:]
    saved_modules = {name: sys.modules.get(name) for name in ("child", "tracer")}
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("child"), importlib.import_module("tracer")
    finally:
        sys.path[:] = saved_path
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_every_tracer_target_resolves(bench):
    """Resolved exactly as ``tracer._apply`` resolves a target."""
    _, tracer = bench
    assert tracer.TARGETS
    unresolved = []
    for module_name, attribute, _, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        owner, _, leaf = attribute.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        target = vars(holder).get(leaf) if holder is not None else None
        if not callable(target):
            unresolved.append(f"{module_name}:{attribute}")
    assert unresolved == []


def test_every_counter_resolves(bench):
    child, _ = bench
    assert child.COUNTERS
    for module_name, function in child.COUNTERS.values():
        counter = getattr(importlib.import_module(module_name), function)
        assert isinstance(counter(), int), (module_name, function)


def _attributes_read(function_name: str, variable: str) -> set[str]:
    """Attributes ``bench/child.py``'s ``function_name`` reads off
    ``variable``."""
    tree = ast.parse((BENCH / "child.py").read_text())
    (function,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == function_name
    ]
    return {
        node.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == variable
    }


def test_sweep_job_reads_existing_fields():
    read = _attributes_read("job_sweep", "execution")
    assert read == {
        "snapshot_generations",
        "bulk_compression_calls",
        "tape_recordings",
    }
    assert read <= {field.name for field in dataclasses.fields(ExecutionReport)}
    swept = _attributes_read("job_sweep", "sweep")
    assert swept
    assert swept <= {field.name for field in dataclasses.fields(SweepResult)}
