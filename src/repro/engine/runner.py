"""The experiment runner: execution settings over one executor.

:class:`ExperimentRunner` holds how experiments run — worker count,
:class:`~repro.engine.cache.ResultCache`, seed, offline mode — and
routes every call through the sweep planner
(:mod:`repro.engine.planner`): :meth:`~ExperimentRunner.run` is a
one-request :meth:`~ExperimentRunner.run_sweep`.  The planner owns
the process pool, the cache lookups, the per-point seeding and the
reduction; this module keeps what addresses and executes one design
point (:func:`point_digests`, :func:`run_point_seeded`) and what
reports on one request (:class:`RunReport`).

Determinism: every synthetic substrate in this repository draws from
named :mod:`repro.rng` streams, so a design point's result depends
only on its parameters — never on scheduling.  As defence in depth
:func:`run_point_seeded` additionally seeds numpy's *global* generator
from a seed the planner derives from the point's content digest, so
even code that reaches for ``np.random`` module functions is
deterministic per point rather than per process.  Results are
collected in expansion order, making ``--workers N`` output
byte-identical to serial runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import rng as rng_lib
from repro.engine.cache import ResultCache, code_salt, param_digest
from repro.engine.registry import Experiment


def point_digests(
    experiment: Experiment, points: list[dict], seed: int
) -> list[str]:
    """Content digests addressing each design point's cached result.

    The runner seed is part of the address: a point executed under one
    ``--seed`` must not be served for another (the seed feeds the
    per-point global-RNG derivation).  The sweep planner keys its
    point nodes and their result-cache entries with these digests.
    """
    salt = code_salt(experiment.salt_modules)
    return [
        param_digest(
            experiment.name,
            {"params": point, "runner_seed": seed},
            salt,
        )
        for point in points
    ]


def run_point_seeded(
    run_point: Callable[[dict], Any],
    point: dict,
    seed: int,
    cache_root: str | None = None,
    cache_max_bytes: int | None = None,
) -> Any:
    """Execute one design point with deterministic global-RNG state.

    Module-level so ``ProcessPoolExecutor`` can pickle it by reference
    together with the experiment's (also module-level) point function.
    The caller's global-RNG state is restored afterwards so inline
    (serial) execution does not clobber library users' ``np.random``
    streams as a side effect.

    When ``cache_root`` is given, the result cache there becomes the
    disk tier of the process artifact store (:mod:`repro.engine.store`)
    for the duration of the point: the compact columnar profiles the
    point computes persist (the ``profile.tensor`` namespace)
    alongside the per-entry states the simulators consume
    (``profile.entries``) and the relaxed engine's recorded event
    tapes (``sim.tape``), shared across design points, experiments,
    worker processes and reruns — the regenerated snapshots themselves
    are never cached.  The planner hands cacheless sweeps a private
    temporary root here, so its stage-0 artifacts reach every point.
    """
    from repro.core.profiler import set_tensor_cache

    if cache_root is not None:
        previous = set_tensor_cache(
            ResultCache(cache_root, max_bytes=cache_max_bytes)
        )
    state = np.random.get_state()
    try:
        np.random.seed(seed & 0xFFFF_FFFF)
        return run_point(point)
    finally:
        np.random.set_state(state)
        if cache_root is not None:
            set_tensor_cache(previous)


@dataclass
class RunReport:
    """What one request did: its points, cache hits and executions."""

    experiment: str
    points: int
    executed: int
    cache_hits: int
    workers: int
    seconds: float

    @property
    def from_cache(self) -> bool:
        return self.executed == 0 and self.points > 0

    def summary(self) -> str:
        source = "cache" if self.from_cache else f"{self.workers} worker(s)"
        return (
            f"[{self.experiment}] {self.points} point(s): "
            f"{self.cache_hits} cached, {self.executed} executed "
            f"({source}, {self.seconds:.2f}s)"
        )


class ExperimentRunner:
    """Run registered experiments with caching and process fan-out.

    Args:
        workers: Worker processes for design points (``<= 1`` = inline).
        cache: A :class:`ResultCache`, or ``None`` to disable caching
            (the default — library callers opt in; the CLI opts in for
            every ``repro run`` / ``repro sweep``).
        seed: Base seed for the per-point global-RNG defence seeding.
        offline: If true, never execute points — raise
            :class:`~repro.engine.cache.CacheMiss` listing what is
            absent instead (``repro report --from-cache``).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        seed: int = rng_lib.DEFAULT_SEED,
        offline: bool = False,
    ) -> None:
        self.workers = max(1, int(workers))
        self.cache = cache
        self.seed = seed
        self.offline = offline

    # ------------------------------------------------------------------
    def run(self, name: str, params: dict | None = None) -> Any:
        """Run an experiment end to end and return its aggregate."""
        value, _ = self.run_report(name, params)
        return value

    def run_report(
        self, name: str, params: dict | None = None
    ) -> tuple[Any, RunReport]:
        """Like :meth:`run`, also returning a :class:`RunReport`.

        A one-request :meth:`run_sweep`, so a single run gets the same
        stage-0 dedupe and bulk-call merging as a sweep.
        """
        result = self.run_sweep([(name, params)])
        return result.values[0], result.reports[0]

    def run_sweep(self, requests):
        """Run several experiments as one optimized, planned sweep.

        A thin wrapper over :func:`repro.engine.planner.plan` /
        :func:`repro.engine.planner.execute_plan`: shared dependency
        nodes are deduped across every point of every request, profile
        builds merge into bulk compression calls, and all points run
        on one process pool — bit-identical to running each request
        alone, but without rebuilding shared tensors per request.

        Args:
            requests: Iterable of experiment names or
                ``(name, params)`` pairs.

        Returns:
            A :class:`repro.engine.planner.SweepResult` (``values``,
            ``reports``, ``execution``, ``plan``).
        """
        from repro.engine.planner import execute_plan, plan

        return execute_plan(plan(requests, self), self)


# ---------------------------------------------------------------------------
# Construction helpers.
# ---------------------------------------------------------------------------
def default_runner() -> ExperimentRunner:
    """Serial, cache-free runner — the library-call default."""
    return ExperimentRunner()


def add_runner_options(parser) -> None:
    """Add the standard engine flags to an ``argparse`` parser.

    Shared by the ``repro`` CLI and the ``examples/`` scripts so every
    entry point drives the same runner (and the same shared cache).
    """
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for design points (default: serial)",
    )
    parser.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache/)",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="LRU-evict the cache above this size (e.g. 256M, 2G)",
    )


def runner_from_args(
    args, seed: int | None = None, offline: bool = False
) -> ExperimentRunner:
    """Build a runner from :func:`add_runner_options` flags."""
    cache = None
    if getattr(args, "cache", True):
        cache = ResultCache(
            getattr(args, "cache_dir", None),
            max_bytes=getattr(args, "cache_max_bytes", None),
        )
    return ExperimentRunner(
        workers=getattr(args, "workers", 1),
        cache=cache,
        seed=rng_lib.DEFAULT_SEED if seed is None else seed,
        offline=offline,
    )


def example_runner(argv=None, description: str | None = None) -> ExperimentRunner:
    """Parse engine flags and build a runner (``examples/`` entry point).

    Examples run their studies through this runner, so they share the
    experiment cache (and the tensor cache) with ``repro run`` /
    ``repro sweep`` invocations.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_runner_options(parser)
    return runner_from_args(parser.parse_args(argv))


def parse_size(text: str) -> int:
    """Parse a byte size with an optional K/M/G/T suffix (``"256M"``)."""
    cleaned = str(text).strip().upper().removesuffix("IB").removesuffix("B")
    scale = 1
    if cleaned and cleaned[-1] in "KMGT":
        scale = 1024 ** (1 + "KMGT".index(cleaned[-1]))
        cleaned = cleaned[:-1]
    try:
        return int(float(cleaned) * scale)
    except ValueError:
        raise ValueError(f"cannot parse size {text!r}") from None
