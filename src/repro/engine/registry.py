"""The experiment registry.

An :class:`Experiment` declares everything the runner needs to execute
a study as a cached, parallel sweep:

* ``defaults`` — the study's full parameter dictionary (every value
  concrete, so parameter hashes are stable);
* ``expand`` — parameters → ordered list of design-point dictionaries;
* ``run_point`` — a ``"module:function"`` reference to the study
  function executing one design point, called as ``fn(**point)``
  (workers receive the string and :func:`resolve` it themselves);
* ``aggregate`` — point results (in expansion order) + parameters →
  the study's result object;
* ``format`` — the study's result object → the paper-style text that
  ``repro run`` / ``repro sweep`` print;
* ``plan_point`` (optional) — a reference to the hook mapping a design
  point dict to the typed dependency specs
  (:mod:`repro.engine.planner`) the point shares with its neighbours,
  so the sweep planner can dedupe and merge them.

The cache's code-version salt is not declared: it hashes the modules
``run_point`` and ``plan_point`` name, closed over the static import
graph (:func:`repro.engine.salts.experiment_salt`).

The built-in experiments (one per analysis study) live in
:mod:`repro.engine.experiments` and register on first lookup.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

_REGISTRY: dict[str, "Experiment"] = {}

#: Module defining the built-in experiments, imported lazily so the
#: registry itself stays dependency-free.
_BUILTINS_MODULE = "repro.engine.experiments"


@dataclass(frozen=True)
class Experiment:
    """One registered study: parameter space, point function, reducer."""

    name: str
    title: str
    defaults: Callable[[], dict[str, Any]]
    expand: Callable[[dict[str, Any]], list[dict[str, Any]]]
    #: ``"module:function"`` of the study function, called ``fn(**point)``.
    run_point: str
    aggregate: Callable[[list[Any], dict[str, Any]], Any]
    format: Callable[[Any], str]
    #: Optional ``"module:function"`` of the dependency-graph hook:
    #: point -> list of typed planner specs (ProfileTensorSpec & co.).
    #: ``None`` = the point is opaque; the planner runs it unoptimized.
    plan_point: str | None = None

    def resolve_params(self, overrides: dict[str, Any] | None) -> dict[str, Any]:
        """Merge caller overrides into the declared defaults.

        ``None`` overrides are treated as "use the default"; unknown
        keys raise so typos never silently miss the cache.
        """
        params = self.defaults()
        for key, value in (overrides or {}).items():
            if key not in params:
                raise KeyError(
                    f"experiment {self.name!r} has no parameter {key!r} "
                    f"(expected one of {sorted(params)})"
                )
            if value is not None:
                params[key] = value
        return params


def resolve(reference: str) -> Callable:
    """The function a ``"module:function"`` reference names.

    Imports the module on first use; afterwards the lookup is a
    ``sys.modules`` hit and one attribute read.
    """
    module, _, name = reference.partition(":")
    return getattr(importlib.import_module(module), name)


def register(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry (last registration wins)."""
    _REGISTRY[experiment.name] = experiment
    return experiment


def _ensure_builtins() -> None:
    importlib.import_module(_BUILTINS_MODULE)


def get_experiment(name: str) -> Experiment:
    """Look up an experiment by name, loading built-ins on demand."""
    if name not in _REGISTRY:
        _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {experiment_names()}"
        ) from None


def experiment_names() -> list[str]:
    """Sorted names of every registered experiment."""
    _ensure_builtins()
    return sorted(_REGISTRY)
