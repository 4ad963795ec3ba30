"""Command-line experiment runner: ``python -m repro <command>``.

Everything routes through the :mod:`repro.engine` subsystem::

    repro list                     # registered experiments
    repro run perf.fig11 --workers 8
    repro sweep --workers 4        # the Fig. 7 design-point sweep
    repro plan perf.fig11 --explain  # the optimized plan, unexecuted
    repro report --from-cache      # render results without re-running
    repro cache                    # cache entries/bytes/evictions
    repro cache --clear            # drop every cached result
    repro doctor                   # active event core + environment

``run`` and ``sweep`` memoise every design point in the
content-addressed cache (``.repro-cache/`` by default, overridable
with ``--cache-dir`` or ``REPRO_CACHE_DIR``), so re-runs and partial
sweeps are incremental; ``--workers N`` fans design points out across
processes with bit-identical results.  ``sweep`` runs all requested
experiments as ONE planned sweep (:mod:`repro.engine.planner`):
shared profile/entry-state artifacts dedupe across experiments and
profile builds merge into bulk compression calls.  ``plan`` prints
what that optimizer would do — node graph, dedupe counts, predicted
cache hits — without executing anything.

The CLI knows no experiment by name: every paper figure (Fig. 6
included, as ``compression.fig6``) is a registered experiment that
formats its own result.  ``--engine NAME[:verify=FRACTION]`` selects
``perf.fig11``'s simulator core, e.g. ``relaxed`` or
``relaxed:verify=0.5``; :func:`repro.gpusim.simulator.check_engine`
validates it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro import rng as rng_lib
from repro.engine.cache import CacheMiss, ResultCache, result_digest
from repro.engine.registry import experiment_names, get_experiment
from repro.engine.runner import (
    ExperimentRunner,
    add_runner_options,
    parse_size,
    runner_from_args,
)

#: ``repro sweep`` default: the Fig. 7 design-point sweep.
DEFAULT_SWEEP = ("compression.fig7",)


# ---------------------------------------------------------------------------
# Parameter assembly.
# ---------------------------------------------------------------------------
def _build_runner(args, offline: bool = False) -> ExperimentRunner:
    return runner_from_args(
        args, seed=getattr(args, "seed", None), offline=offline
    )


def _engine_params(text: str) -> dict:
    """``--engine NAME[:verify=FRACTION]`` as experiment parameters.

    The argparse ``type=``: blanks around the text or an option and a
    trailing comma are allowed.  A malformed spec or a selection
    :func:`~repro.gpusim.simulator.check_engine` rejects is a usage
    error: argparse prints the message and exits 2.
    """
    from repro.gpusim.simulator import check_engine

    name, _, options = text.strip().partition(":")
    verify = 0.0
    try:
        for item in filter(None, options.split(",")):
            key, sep, value = item.partition("=")
            if not sep or key.strip() != "verify":
                raise ValueError(
                    f"bad engine spec option {item!r} in {text!r}; "
                    "expected verify=FRACTION"
                )
            try:
                verify = float(value)
            except ValueError:
                raise ValueError(
                    f"bad engine spec value {value!r} for verify in {text!r}"
                ) from None
        check_engine(name, verify)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return {"engine": name, "verify": verify}


def _experiment_params(name: str, args) -> dict:
    """Translate CLI flags into experiment parameter overrides."""
    from repro.workloads.snapshots import SnapshotConfig
    from repro.workloads.traces import TraceConfig

    defaults = get_experiment(name).defaults()
    params: dict = {}
    benchmarks = getattr(args, "benchmarks", None)
    if benchmarks:
        key = "networks" if "networks" in defaults else "benchmarks"
        params[key] = tuple(benchmarks)
    engine = getattr(args, "engine", None)
    if engine is not None:
        if "engine" in defaults:
            params.update(engine)
        else:
            print(
                f"warning: {name} has no simulator engine axis; "
                "engine selection ignored",
                file=sys.stderr,
            )
    scale = getattr(args, "scale", None)
    if scale:
        scaled = False
        for key, value in defaults.items():
            if isinstance(value, SnapshotConfig):
                params[key] = replace(value, scale=scale)
                scaled = True
            elif isinstance(value, TraceConfig):
                params[key] = replace(
                    value,
                    snapshot_config=replace(value.snapshot_config, scale=scale),
                )
                scaled = True
        if not scaled:
            print(
                f"warning: {name} has no snapshot-scaled parameters; "
                "--scale ignored",
                file=sys.stderr,
            )
    return params


def _print_result(name: str, value, report, quiet: bool) -> None:
    print(get_experiment(name).format(value))
    if not quiet:
        print(report.summary())
        print(f"result digest: {result_digest(value)}")


def _run_one(name: str, args, offline: bool = False) -> int:
    runner = _build_runner(args, offline=offline)
    try:
        value, report = runner.run_report(name, _experiment_params(name, args))
    except CacheMiss as miss:
        print(f"error: {miss.args[0]}", file=sys.stderr)
        return 2
    _print_result(name, value, report, args.quiet)
    return 0


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------
def _cmd_list(args) -> int:
    for name in experiment_names():
        print(f"{name:20s} {get_experiment(name).title}")
    return 0


def _cmd_run(args) -> int:
    return _run_one(args.experiment, args)


def _check_names(names: list[str]) -> None:
    """Validate experiment names before any work starts."""
    unknown = [n for n in names if n not in experiment_names()]
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"registered: {', '.join(experiment_names())}"
        )


def _sweep_requests(args) -> list[tuple[str, dict]]:
    """The ``(name, params)`` requests of ``sweep`` / ``plan``."""
    names = list(args.experiments) or (
        list(experiment_names()) if args.all else list(DEFAULT_SWEEP)
    )
    _check_names(names)
    return [(name, _experiment_params(name, args)) for name in names]


def _cmd_sweep(args) -> int:
    requests = _sweep_requests(args)
    sweep = _build_runner(args).run_sweep(requests)
    for (name, _), value, report in zip(requests, sweep.values, sweep.reports):
        print(f"== {name} ==")
        _print_result(name, value, report, args.quiet)
    if not args.quiet:
        print(sweep.execution.summary())
    return 0


def _cmd_plan(args) -> int:
    """Print the optimized plan of a sweep without executing it."""
    from repro.engine.planner import plan

    sweep_plan = plan(_sweep_requests(args), _build_runner(args))
    if args.json:
        print(json.dumps(sweep_plan.to_json(), indent=2))
    elif args.explain:
        print(sweep_plan.explain())
    else:
        print(sweep_plan.describe())
    return 0


def _cmd_report(args) -> int:
    names = list(args.experiments) or list(DEFAULT_SWEEP)
    _check_names(names)
    status = 0
    for name in names:
        print(f"== {name} ==")
        status = max(status, _run_one(name, args, offline=args.from_cache))
    return status


def _cmd_cache(args) -> int:
    """Report (or clear / shrink) the result cache."""
    cache = ResultCache(args.cache_dir)
    if args.clear is not _KEEP:
        removed = cache.clear(args.clear)
        print(f"removed {removed} cached entr{'y' if removed == 1 else 'ies'}")
        return 0
    if args.evict_to is not None:
        evicted = cache.evict(args.evict_to)
        if not args.json:
            print(f"evicted {evicted} entr{'y' if evicted == 1 else 'ies'}")
    from repro.gpusim.vector_sim import TAPE_FORMAT_VERSION

    usage = cache.usage()
    if args.json:
        print(
            json.dumps(
                {
                    "root": str(cache.root),
                    "entries": usage.entries,
                    "bytes": usage.bytes,
                    "evictions": usage.evictions,
                    "tape_format_version": TAPE_FORMAT_VERSION,
                    "per_experiment": {
                        name: {"entries": entries, "bytes": size}
                        for name, (entries, size) in usage.per_experiment.items()
                    },
                },
                indent=2,
            )
        )
        return 0
    print(f"cache root: {cache.root}")
    for name, (entries, size) in usage.per_experiment.items():
        print(f"  {name:20s} {entries:6d} entr{'y' if entries == 1 else 'ies'} {size:12,d} bytes")
    if "sim.tape" in usage.per_experiment:
        print(f"  (sim.tape entries use tape serialization format v{TAPE_FORMAT_VERSION})")
    print(
        f"total: {usage.entries} entr{'y' if usage.entries == 1 else 'ies'}, "
        f"{usage.bytes:,d} bytes, {usage.evictions} lifetime eviction(s)"
    )
    return 0


def _cmd_doctor(args) -> int:
    """Report the runtime environment performance numbers depend on.

    Perf reports are only attributable if they say which event core
    produced them — the compiled extension and the pure-Python
    fallback are digest-identical but far apart in wall-clock.  A
    compiled extension whose ABI does not match the Python layout is
    never used (the runtime falls back to pure Python), but it means
    the build is out of date; ``--strict`` turns that into a non-zero
    exit so CI fails loudly instead of silently benchmarking the
    fallback.
    """
    import platform

    import numpy as np

    from repro.gpusim import _event_core
    from repro.gpusim.vector_sim import TAPE_FORMAT_VERSION

    cache = ResultCache(args.cache_dir)
    usage = cache.usage()
    tape_entries, tape_bytes = usage.per_experiment.get("sim.tape", (0, 0))
    info = {
        "event_core": _event_core.describe(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cache": {
            "root": str(cache.root),
            "entries": usage.entries,
            "bytes": usage.bytes,
        },
        "tape": {
            "format_version": TAPE_FORMAT_VERSION,
            "entries": tape_entries,
            "bytes": tape_bytes,
        },
    }
    core = info["event_core"]
    stale = bool(core.get("extension_stale"))
    failed = args.strict and stale
    if args.json:
        print(json.dumps(info, indent=2))
        return 1 if failed else 0
    print(f"event core:  {core['event_core']}")
    print(f"  extension available: {core['extension_available']}")
    print(f"  extension ABI:       {core['extension_abi']}")
    print(f"  extension stale:     {stale}")
    print(f"  forced python:       {core['forced_python']}")
    if core["detail"]:
        print(f"  detail:              {core['detail']}")
    print(f"python:      {info['python']}")
    print(f"numpy:       {info['numpy']}")
    print(f"platform:    {info['platform']}")
    print(
        f"cache:       {info['cache']['root']} "
        f"({usage.entries} entr{'y' if usage.entries == 1 else 'ies'}, "
        f"{usage.bytes:,d} bytes)"
    )
    print(
        f"tape cache:  format v{TAPE_FORMAT_VERSION}, "
        f"{tape_entries} entr{'y' if tape_entries == 1 else 'ies'}, "
        f"{tape_bytes:,d} bytes"
    )
    if failed:
        print(
            "error: compiled extension is present but ABI-stale; "
            "rebuild it (python setup.py build_ext --inplace) or "
            "set REPRO_NO_EXT=1",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve_components(args):
    """Build the service + server pair from CLI flags."""
    from repro.engine.store import ArtifactStore
    from repro.serve.server import AdvisorServer
    from repro.serve.service import AdvisorService, ServiceConfig
    from repro.workloads.snapshots import SnapshotConfig

    backing = None if args.no_cache else ResultCache(args.cache_dir)
    service = AdvisorService(
        hot=ArtifactStore(backing=backing, max_entries=args.hot_entries),
        config=ServiceConfig(
            max_batch=args.max_batch,
            max_delay=args.max_delay_ms / 1000.0,
            max_pending=args.max_pending,
        ),
        snapshot_config=(
            SnapshotConfig(scale=args.scale) if args.scale else SnapshotConfig()
        ),
    )
    return service, AdvisorServer(service, host=args.host, port=args.port)


async def _serve_forever(args) -> int:
    import asyncio

    service, server = _serve_components(args)
    async with service:
        async with server:
            print(
                f"advisor listening on {server.host}:{server.port} "
                f"(max batch {service.config.max_batch}, "
                f"window {service.config.max_delay * 1000:g} ms, "
                f"queue bound {service.config.max_pending})",
                flush=True,
            )
            try:
                await asyncio.Event().wait()  # serve until interrupted
            except asyncio.CancelledError:
                pass
    return 0


def _cmd_serve(args) -> int:
    """Boot the always-on advisor service."""
    import asyncio

    try:
        return asyncio.run(_serve_forever(args))
    except KeyboardInterrupt:
        print("advisor stopped", file=sys.stderr)
        return 0


#: Sentinel distinguishing "--clear" (clear all) from "--clear EXP".
_KEEP = object()


# ---------------------------------------------------------------------------
def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    add_runner_options(parser)  # --workers / --no-cache / --cache-*
    parser.add_argument(
        "--seed",
        type=int,
        default=rng_lib.DEFAULT_SEED,
        help="base seed for per-point RNG derivation",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="override snapshot scale (e.g. 1.5e-5 for a quick smoke run)",
    )
    parser.add_argument(
        "--engine",
        type=_engine_params,
        default=None,
        metavar="SPEC",
        help=(
            "simulator core of perf.fig11 as "
            "NAME[:verify=FRACTION]: vectorized (default, exact) "
            "or relaxed (frozen-order tape engine, fastest across link "
            "sweeps; verify= cross-checks that fraction of runs "
            "against the vectorized engine)"
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the cache/digest summary lines",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Buddy Compression reproduction experiments",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered experiments").set_defaults(
        func=_cmd_list
    )

    run = commands.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=experiment_names())
    run.add_argument("benchmarks", nargs="*", help="optional benchmark subset")
    _add_engine_options(run)
    run.set_defaults(func=_cmd_run)

    sweep = commands.add_parser(
        "sweep", help="run a set of experiments (default: the Fig. 7 sweep)"
    )
    sweep.add_argument(
        "experiments", nargs="*", help="experiments (default: compression.fig7)"
    )
    sweep.add_argument(
        "--all", action="store_true", help="sweep every registered experiment"
    )
    _add_engine_options(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    plan = commands.add_parser(
        "plan",
        help="show the optimized sweep plan (dedupe/merge) without running",
    )
    plan.add_argument(
        "experiments", nargs="*", help="experiments (default: compression.fig7)"
    )
    plan.add_argument(
        "--all", action="store_true", help="plan every registered experiment"
    )
    plan.add_argument(
        "--explain",
        action="store_true",
        help="also print the full node graph and merge groups",
    )
    plan.add_argument(
        "--json", action="store_true", help="machine-readable plan description"
    )
    _add_engine_options(plan)
    plan.set_defaults(func=_cmd_plan)

    report = commands.add_parser(
        "report", help="render experiment results (optionally cache-only)"
    )
    report.add_argument(
        "experiments", nargs="*", help="experiments (default: compression.fig7)"
    )
    report.add_argument(
        "--from-cache",
        action="store_true",
        help="fail instead of executing design points not in the cache",
    )
    _add_engine_options(report)
    report.set_defaults(func=_cmd_report)

    cache = commands.add_parser(
        "cache", help="report entries/bytes/evictions of the result cache"
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache/)",
    )
    cache.add_argument(
        "--clear",
        nargs="?",
        const=None,
        default=_KEEP,
        metavar="EXPERIMENT",
        help="delete cached entries (optionally one experiment's only)",
    )
    cache.add_argument(
        "--evict-to",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="LRU-evict entries until the cache fits SIZE (e.g. 256M)",
    )
    cache.add_argument(
        "--json",
        action="store_true",
        help="machine-readable usage report",
    )
    cache.set_defaults(func=_cmd_cache)

    doctor = commands.add_parser(
        "doctor",
        help="report the active event core (compiled vs pure-Python) "
        "and runtime environment",
    )
    doctor.add_argument(
        "--cache-dir",
        default=None,
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache/)",
    )
    doctor.add_argument(
        "--json",
        action="store_true",
        help="machine-readable environment report",
    )
    doctor.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when the compiled extension is ABI-stale",
    )
    doctor.set_defaults(func=_cmd_doctor)

    serve = commands.add_parser(
        "serve",
        help="always-on compression advisor: micro-batched admission, "
        "shared hot cache, JSON-lines TCP protocol",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="most requests answered per bulk pipeline call",
    )
    serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        help="batching window after the first arrival, in milliseconds",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission-queue bound; beyond it requests are rejected "
        "with a retry-after hint",
    )
    serve.add_argument(
        "--hot-entries",
        type=int,
        default=512,
        help="hot-cache residency bound (LRU-evicted past it)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk backing for the hot cache "
        "(default: $REPRO_CACHE_DIR or .repro-cache/)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="memory-only hot cache, no disk backing",
    )
    serve.add_argument(
        "--scale",
        type=float,
        default=None,
        help="snapshot subsampling fraction for benchmark-backed "
        "requests (default: the paper's 1/16384)",
    )
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as err:
        # Unknown benchmark / parameter names surface as KeyErrors with
        # sentence-like messages from deep in the stack.  Bare-key
        # KeyErrors (a genuine lookup bug) re-raise with their full
        # traceback rather than masquerading as user error.
        message = err.args[0] if err.args else None
        if not (isinstance(message, str) and " " in message):
            raise
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
