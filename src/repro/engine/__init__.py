"""Parallel experiment engine with content-addressed result caching.

The engine turns each analysis study into a named *experiment*: a
declared parameter space that expands into independent design points,
a pickle-safe per-point function, and an aggregator that assembles the
study's result object.  :class:`~repro.engine.runner.ExperimentRunner`
fans the points out across a ``ProcessPoolExecutor`` and memoises each
point's result in a content-addressed on-disk cache keyed by
``(experiment, parameter hash, code-version salt)``, so re-runs and
partial sweeps are incremental.

Design points are embarrassingly parallel and every synthetic
substrate draws from named :mod:`repro.rng` streams, so results are
bit-identical regardless of worker count or completion order.
"""

from repro.engine.cache import (
    CacheMiss,
    CacheUsage,
    ResultCache,
    param_digest,
    result_digest,
)
from repro.engine.planner import (
    EntryStateSpec,
    ExecutionReport,
    Plan,
    PlanNode,
    PlanStats,
    ProfileTensorSpec,
    SweepResult,
    TraceSpec,
    execute_plan,
    plan,
)
from repro.engine.registry import (
    Experiment,
    experiment_names,
    get_experiment,
    register,
)
from repro.engine.runner import (
    ExperimentRunner,
    RunReport,
    add_runner_options,
    example_runner,
    parse_size,
    runner_from_args,
)
from repro.engine.salts import code_salt

__all__ = [
    "CacheMiss",
    "CacheUsage",
    "EntryStateSpec",
    "ExecutionReport",
    "Experiment",
    "ExperimentRunner",
    "Plan",
    "PlanNode",
    "PlanStats",
    "ProfileTensorSpec",
    "ResultCache",
    "RunReport",
    "SweepResult",
    "TraceSpec",
    "add_runner_options",
    "code_salt",
    "example_runner",
    "execute_plan",
    "experiment_names",
    "get_experiment",
    "param_digest",
    "parse_size",
    "plan",
    "register",
    "result_digest",
    "runner_from_args",
]
