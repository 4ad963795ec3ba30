"""The one-stop library facade: ``import repro; repro.api.run(...)``.

Six verbs cover the experiment engine end to end, mirroring the CLI
commands one for one:

* :func:`run` — one experiment, returning a typed :class:`RunResult`;
* :func:`sweep` — several experiments as ONE planned sweep (shared
  artifacts deduped, profile builds merged into bulk compression
  calls), returning :class:`SweepResults`;
* :func:`plan` — the optimized plan of a sweep, unexecuted
  (:class:`repro.engine.planner.Plan` — ``describe()`` / ``explain()``
  / ``to_json()``);
* :func:`report` — cache-only rendering: like :func:`run` but raising
  :class:`repro.engine.CacheMiss` instead of executing anything;
* :func:`cache_stats` — a typed :class:`CacheStats` snapshot of the
  shared on-disk result cache;
* :func:`advise` — one advisor answer, in-process (``repro serve``'s
  one-shot form).  For a *running* ``repro serve`` instance, use
  :class:`AdvisorClient` (``await AdvisorClient.connect(host, port)``),
  which resolves on first use so the facade loads no asyncio server.

Every verb takes the same optional ``runner`` — an
:class:`repro.engine.ExperimentRunner` controlling parallelism,
caching and the base seed — and defaults to a serial runner over the
shared on-disk cache (``.repro-cache/`` or ``$REPRO_CACHE_DIR``), so
library calls, ``examples/`` scripts and the ``repro`` CLI all hit
the same cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.engine.cache import ResultCache, result_digest
from repro.engine.planner import ExecutionReport, Plan
from repro.engine.planner import plan as _plan
from repro.engine.runner import ExperimentRunner, RunReport
from repro.serve.protocol import Advice, AdviceRequest

__all__ = [
    "Advice",
    "AdviceRequest",
    "AdvisorClient",
    "CacheStats",
    "RunResult",
    "SweepResults",
    "advise",
    "cache_stats",
    "plan",
    "report",
    "run",
    "sweep",
]


def __getattr__(name: str):
    """PEP 562: resolve :class:`AdvisorClient` (and with it the asyncio
    server) on first access only."""
    if name == "AdvisorClient":
        from repro.serve.server import AdvisorClient

        return AdvisorClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _default_runner(offline: bool = False) -> ExperimentRunner:
    """Serial runner over the shared on-disk cache (the CLI's default)."""
    return ExperimentRunner(cache=ResultCache(), offline=offline)


@dataclass
class RunResult:
    """One experiment's outcome: aggregate value plus provenance."""

    experiment: str
    value: Any
    report: RunReport
    digest: str  # content digest of ``value`` (`repro run` prints it)

    @property
    def from_cache(self) -> bool:
        return self.report.from_cache


@dataclass
class SweepResults:
    """A planned multi-experiment sweep's outcome.

    ``runs`` holds one :class:`RunResult` per request, in request
    order; ``execution`` carries the planner's counter-pinned
    stage-0 statistics (artifacts built/reused, bulk compression
    calls, snapshot generations); ``plan`` is the executed plan.
    """

    runs: list[RunResult]
    execution: ExecutionReport
    plan: Plan

    def __iter__(self):
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, experiment: str) -> RunResult:
        """The first run of the named experiment."""
        for run_ in self.runs:
            if run_.experiment == experiment:
                return run_
        raise KeyError(
            f"no {experiment!r} in this sweep; "
            f"ran: {', '.join(r.experiment for r in self.runs)}"
        )


@dataclass
class CacheStats:
    """A typed snapshot of the result cache (``repro cache``)."""

    root: str
    entries: int
    bytes: int
    evictions: int
    per_experiment: dict[str, tuple[int, int]]  # name -> (entries, bytes)


# ---------------------------------------------------------------------------
def run(
    experiment: str,
    params: dict | None = None,
    runner: ExperimentRunner | None = None,
) -> RunResult:
    """Run one experiment end to end (``repro run``)."""
    runner = runner or _default_runner()
    value, report = runner.run_report(experiment, params)
    return RunResult(experiment, value, report, result_digest(value))


def sweep(requests, runner: ExperimentRunner | None = None) -> SweepResults:
    """Run several experiments as one planned sweep (``repro sweep``).

    ``requests`` is an iterable of experiment names or
    ``(name, params)`` pairs.  Results are bit-identical to calling
    :func:`run` per request; shared profile/entry-state artifacts are
    built once for the whole sweep.
    """
    runner = runner or _default_runner()
    result = runner.run_sweep(requests)
    runs = [
        RunResult(report.experiment, value, report, result_digest(value))
        for value, report in zip(result.values, result.reports)
    ]
    return SweepResults(runs, result.execution, result.plan)


def plan(requests, runner: ExperimentRunner | None = None) -> Plan:
    """The optimized plan of a sweep, unexecuted (``repro plan``)."""
    return _plan(requests, runner or _default_runner())


def report(
    experiment: str,
    params: dict | None = None,
    runner: ExperimentRunner | None = None,
) -> RunResult:
    """Render a cached result without executing anything.

    Like :func:`run` but offline: a design point absent from the
    cache raises :class:`repro.engine.CacheMiss` (``repro report
    --from-cache``).  A passed ``runner`` is used as-is — hand it an
    offline one (``ExperimentRunner(cache=..., offline=True)``).
    """
    return run(experiment, params, runner or _default_runner(offline=True))


def advise(
    request: AdviceRequest | None = None,
    *,
    cache: ResultCache | None = None,
    config=None,
    **fields,
) -> Advice:
    """One advisor answer, in-process (``repro serve``'s one-shot form).

    Pass a prebuilt :class:`AdviceRequest`, or its fields directly::

        advice = repro.api.advise(benchmark="VGG16", codec="bdi")
        advice.recommendation["design"]

    The answer is digest-identical to what a running service returns
    for the same request, and to the per-benchmark payload of
    ``repro run serve.advice``.  Malformed fields raise
    :class:`repro.serve.protocol.InvalidRequest` (typed, with a stable
    ``code``), never bare ``ValueError``.
    """
    from repro.serve.advisor import advise_one
    from repro.serve.protocol import InvalidRequest

    if request is None:
        try:
            request = AdviceRequest(**fields)
        except TypeError as err:
            raise InvalidRequest("bad-request", str(err)) from None
    elif fields:
        raise InvalidRequest(
            "bad-request", "pass either a request or fields, not both"
        )
    return advise_one(request, cache=cache, config=config)


def cache_stats(cache_dir: str | None = None) -> CacheStats:
    """Usage snapshot of the shared result cache (``repro cache``)."""
    cache = ResultCache(cache_dir)
    usage = cache.usage()
    return CacheStats(
        root=str(cache.root),
        entries=usage.entries,
        bytes=usage.bytes,
        evictions=usage.evictions,
        per_experiment=dict(usage.per_experiment),
    )
