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
    repro check --strict           # static invariant analyzer

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

The paper's figure names (``repro fig3`` … ``repro fig13``) remain as
deprecated aliases that run serially without touching the cache,
printing the same rows/series the paper reports plus a pointer to the
equivalent ``repro run`` invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro.engine import (
    CacheMiss,
    ExperimentRunner,
    ResultCache,
    add_runner_options,
    experiment_names,
    get_experiment,
    parse_size,
    result_digest,
    runner_from_args,
)
from repro import rng as rng_lib
from repro.analysis import paper_reference as paper

#: ``repro sweep`` default: the Fig. 7 design-point sweep.
DEFAULT_SWEEP = ("compression.fig7",)

#: Legacy figure aliases onto registered experiments.
FIGURE_ALIASES = {
    "fig3": "compression.fig3",
    "fig7": "compression.fig7",
    "fig8": "compression.fig8",
    "fig9": "compression.fig9",
    "fig5b": "metadata.fig5b",
    "fig10": "correlation.fig10",
    "fig11": "perf.fig11",
    "fig12": "um.fig12",
    "fig13": "dl.fig13",
}


# ---------------------------------------------------------------------------
# Per-experiment result formatters.
# ---------------------------------------------------------------------------
def _print_fig3(rows) -> None:
    from repro.analysis.compression_study import suite_gmean

    for row in rows:
        print(f"{row.benchmark:14s} {row.mean_ratio:5.2f}")
    # Subset runs may leave a suite empty; a fabricated 0.00 gmean
    # against the paper value would be misleading.
    if any(row.is_hpc for row in rows):
        print(f"GMEAN HPC {suite_gmean(rows, True):.2f} (paper {paper.FIG3_GMEAN_HPC})")
    if any(not row.is_hpc for row in rows):
        print(f"GMEAN DL  {suite_gmean(rows, False):.2f} (paper {paper.FIG3_GMEAN_DL})")


def _print_fig7(study) -> None:
    for design in ("naive", "per-allocation", "final"):
        for label, hpc in (("HPC", True), ("DL", False)):
            ratio, accesses = study.suite_summary(design, hpc)
            print(
                f"{design:16s} {label}: {ratio:.2f}x, "
                f"{accesses:.2%} buddy accesses"
            )


def _print_fig8(results) -> None:
    for name, result in results.items():
        series = " ".join(
            f"{s.entry_fraction:.3f}" for s in result.per_snapshot
        )
        print(f"{name:14s} ratio {result.compression_ratio:4.2f}x  {series}")


def _print_fig9(sweep) -> None:
    thresholds = sorted(next(iter(sweep.values())))
    header = f"{'benchmark':14s} " + " ".join(f"t={t:.2f}" for t in thresholds)
    print(header)
    for name, runs in sweep.items():
        cells = " ".join(f"{runs[t].compression_ratio:6.2f}" for t in thresholds)
        print(f"{name:14s} {cells}")


def _print_fig5b(rows) -> None:
    from repro.analysis.metadata_study import format_metadata_table

    print(format_metadata_table(rows))


def _print_fig10(result) -> None:
    print(
        f"correlation (log cycles): {result.correlation:.3f} "
        f"(paper {paper.FIG10_CORRELATION})"
    )
    print(f"fast-vs-reference wall-clock ratio: {result.mean_speed_ratio:.0f}x")


def _print_fig11(result) -> None:
    from repro.analysis.perf_study import format_perf_table

    print(format_perf_table(result))


def _print_fig12(rows) -> None:
    from repro.analysis.um_study import format_fig12_table

    print(format_fig12_table(rows))


def _print_dl_ratios(ratios) -> None:
    for name, ratio in ratios.items():
        print(f"{name:14s} {ratio:5.2f}x")


def _print_fig13(result) -> None:
    from repro.analysis.dl_study import format_dl_tables

    print(format_dl_tables(result))


def _print_advice(results) -> None:
    for name, payload in results.items():
        rec = payload["recommendation"]
        threshold = rec["threshold"]
        threshold_text = "-" if threshold is None else f"{threshold:.2f}"
        print(
            f"{name:14s} {rec['design']:14s} t={threshold_text} "
            f"{rec['compression_ratio']:5.2f}x "
            f"{rec['buddy_entry_fraction']:.2%} buddy entries"
        )


FORMATTERS = {
    "compression.fig3": _print_fig3,
    "compression.fig7": _print_fig7,
    "compression.fig8": _print_fig8,
    "compression.fig9": _print_fig9,
    "metadata.fig5b": _print_fig5b,
    "correlation.fig10": _print_fig10,
    "perf.fig11": _print_fig11,
    "um.fig12": _print_fig12,
    "dl.ratios": _print_dl_ratios,
    "dl.fig13": _print_fig13,
    "serve.advice": _print_advice,
}


# ---------------------------------------------------------------------------
# Parameter assembly.
# ---------------------------------------------------------------------------
def _build_runner(args, offline: bool = False) -> ExperimentRunner:
    return runner_from_args(
        args, seed=getattr(args, "seed", None), offline=offline
    )


def _cli_engine_spec(name: str, args):
    """The CLI's single engine-selection parse point.

    Folds ``--engine-spec`` (preferred) and the legacy ``--engine`` /
    ``--verify`` pair into one validated
    :class:`~repro.gpusim.engine_spec.EngineSpec`, or ``None`` when no
    engine selection applies to this experiment.
    """
    from repro.gpusim.engine_spec import EngineSpec

    text = getattr(args, "engine_spec", None)
    engine = getattr(args, "engine", None)
    verify = getattr(args, "verify", None)
    if text:
        if engine or verify:
            raise KeyError(
                "pass either --engine-spec or the --engine/--verify "
                "pair, not both"
            )
        spec = EngineSpec.parse(text)
    elif engine or verify:
        if verify and engine != "relaxed":
            # The exact engines have nothing to cross-check; passing
            # verify through would raise deep inside every design
            # point, so fail the friendly way the other flags do.
            print(
                "warning: --verify is the relaxed engine's oracle "
                "cross-check; pass --engine relaxed to enable it "
                "(--verify ignored)",
                file=sys.stderr,
            )
            verify = None
        spec = EngineSpec(engine or "vectorized", verify or 0.0)
    else:
        return None
    if "engine" not in get_experiment(name).defaults():
        print(
            f"warning: {name} has no simulator engine axis; "
            "engine selection ignored",
            file=sys.stderr,
        )
        return None
    if spec.tolerance is not None:
        # A custom tolerance cannot reach cached design points without
        # becoming a cache axis (see EngineSpec.study_params).
        print(
            "warning: tolerance= is a direct-simulation knob; cached "
            "experiments pin the default tolerances (ignored)",
            file=sys.stderr,
        )
        spec = replace(spec, tolerance=None)
    return spec


def _experiment_params(name: str, args) -> dict:
    """Translate CLI flags into experiment parameter overrides."""
    from repro.workloads.snapshots import SnapshotConfig
    from repro.workloads.traces import TraceConfig

    params: dict = {}
    benchmarks = getattr(args, "benchmarks", None)
    if benchmarks:
        key = "networks" if name.startswith("dl.") else "benchmarks"
        params[key] = tuple(benchmarks)
    spec = _cli_engine_spec(name, args)
    if spec is not None:
        params["engine"] = spec.name
        if spec.verify:
            params["verify"] = spec.verify
    scale = getattr(args, "scale", None)
    if scale:
        defaults = get_experiment(name).defaults()
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


def _run_one(name: str, args, offline: bool = False) -> int:
    runner = _build_runner(args, offline=offline)
    try:
        value, report = runner.run_report(name, _experiment_params(name, args))
    except CacheMiss as miss:
        print(f"error: {miss.args[0]}", file=sys.stderr)
        return 2
    FORMATTERS[name](value)
    if not args.quiet:
        print(report.summary())
        print(f"result digest: {result_digest(value)}")
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


def _check_names(names: list[str]) -> int:
    """Validate experiment names before any work starts."""
    unknown = [n for n in names if n not in experiment_names()]
    if unknown:
        print(
            f"error: unknown experiment(s) {', '.join(unknown)}; "
            f"registered: {', '.join(experiment_names())}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_sweep(args) -> int:
    names = list(args.experiments) or (
        list(experiment_names()) if args.all else list(DEFAULT_SWEEP)
    )
    status = _check_names(names)
    if status:
        return status
    runner = _build_runner(args)
    requests = [(name, _experiment_params(name, args)) for name in names]
    sweep = runner.run_sweep(requests)
    for name, value, report in zip(names, sweep.values, sweep.reports):
        print(f"== {name} ==")
        FORMATTERS[name](value)
        if not args.quiet:
            print(report.summary())
            print(f"result digest: {result_digest(value)}")
    if not args.quiet:
        print(sweep.execution.summary())
    return 0


def _cmd_plan(args) -> int:
    """Print the optimized plan of a sweep without executing it."""
    from repro.engine.planner import plan

    names = list(args.experiments) or (
        list(experiment_names()) if args.all else list(DEFAULT_SWEEP)
    )
    status = _check_names(names)
    if status:
        return status
    runner = _build_runner(args)
    requests = [(name, _experiment_params(name, args)) for name in names]
    sweep_plan = plan(requests, runner)
    if args.json:
        print(json.dumps(sweep_plan.to_json(), indent=2))
    elif args.explain:
        print(sweep_plan.explain())
    else:
        print(sweep_plan.describe())
    return 0


def _cmd_report(args) -> int:
    names = list(args.experiments) or list(DEFAULT_SWEEP)
    status = _check_names(names)
    for name in names if status == 0 else ():
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
    the build is out of date; ``--strict`` turns that — and any
    ``repro check`` error — into a non-zero exit so CI fails loudly
    instead of silently benchmarking the fallback.
    """
    import platform

    import numpy as np

    from repro.gpusim import _event_core
    from repro.gpusim.vector_sim import TAPE_FORMAT_VERSION
    from repro.statics import check_repo

    cache = ResultCache(args.cache_dir)
    usage = cache.usage()
    tape_entries, tape_bytes = usage.per_experiment.get("sim.tape", (0, 0))
    check_summary = check_repo().summary()
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
        "check": check_summary,
    }
    core = info["event_core"]
    stale = bool(core.get("extension_stale"))
    failed = args.strict and (stale or check_summary["errors"] > 0)
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
    print(
        f"check:       {check_summary['errors']} error(s), "
        f"{check_summary['warnings']} warning(s), "
        f"{check_summary['suppressed']} suppressed "
        "(see 'repro check')"
    )
    if failed:
        if stale:
            print(
                "error: compiled extension is present but ABI-stale; "
                "rebuild it (python setup.py build_ext --inplace) or "
                "set REPRO_NO_EXT=1",
                file=sys.stderr,
            )
        if check_summary["errors"]:
            print(
                "error: 'repro check' reports errors; run it for details",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_check(args) -> int:
    """Run the static invariant analyzer (:mod:`repro.statics`).

    Exit status is 0 when no unsuppressed errors were found (under
    ``--strict``, warnings fail too — the CI gate).
    """
    from repro.statics import check_repo

    report = check_repo()
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = report.summary()
        print(
            f"repro check: {summary['errors']} error(s), "
            f"{summary['warnings']} warning(s), "
            f"{summary['suppressed']} suppressed"
        )
    return 0 if report.ok(strict=args.strict) else 1


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


async def _serve_check(args) -> int:
    """In-process self-test: boot, load, assert parity + coalescing.

    Fires a burst of concurrent client requests over TCP, then checks
    (1) zero below-capacity drops, (2) the batcher coalesced them into
    at most ceil(N / max_batch) bulk profile/evaluate calls, and
    (3) every answer's digest equals the one-shot ``repro run
    serve.advice`` digest for the same question.  Exit 1 on any
    failure — the CI serve job's gate.
    """
    import asyncio
    import math

    from repro.serve.protocol import DEFAULT_THRESHOLDS, DESIGNS, AdviceRequest
    from repro.serve.server import AdvisorClient
    from repro.workloads.snapshots import SnapshotConfig

    benchmarks = tuple(args.benchmarks) or ("VGG16", "356.sp")
    config = SnapshotConfig(scale=args.scale) if args.scale else SnapshotConfig()
    #: Per benchmark: the default grid plus trimmed variants, so the
    #: burst carries distinct requests that still share one tensor.
    threshold_sets = (
        DEFAULT_THRESHOLDS,
        DEFAULT_THRESHOLDS[:3],
        DEFAULT_THRESHOLDS[:2],
    )
    requests = [
        AdviceRequest(benchmark=name, thresholds=thresholds)
        for name in benchmarks
        for thresholds in threshold_sets
    ]

    service, server = _serve_components(args)
    failures = []
    async with service:
        async with server:
            client = await AdvisorClient.connect(server.host, server.port)
            try:
                advices = await asyncio.gather(
                    *(client.advise(request) for request in requests)
                )
            finally:
                await client.aclose()
    stats = service.stats_json()

    if stats["service"]["rejected"]:
        failures.append(
            f"{stats['service']['rejected']} below-capacity rejection(s)"
        )
    ceiling = math.ceil(len(requests) / service.config.max_batch)
    for kind in ("profile", "evaluate"):
        calls = stats["bulk_calls"][kind]
        if calls > ceiling:
            failures.append(
                f"{calls} bulk {kind} calls for {len(requests)} requests "
                f"(allowed {ceiling})"
            )

    # Digest parity with the one-shot engine path, per benchmark.
    runner = ExperimentRunner(cache=None)
    for name in benchmarks:
        value, _ = runner.run_report(
            "serve.advice",
            {
                "benchmarks": (name,),
                "codec": "bpc",
                "thresholds": DEFAULT_THRESHOLDS,
                "designs": DESIGNS,
                "config": config,
            },
        )
        oneshot = result_digest(value[name])
        served = next(
            advice
            for request, advice in zip(requests, advices)
            if request.benchmark == name
            and request.thresholds == DEFAULT_THRESHOLDS
        )
        status = "ok" if served.digest == oneshot else "MISMATCH"
        print(f"{name:14s} served {served.digest} one-shot {oneshot} {status}")
        if served.digest != oneshot:
            failures.append(f"digest mismatch for {name}")

    print(
        f"serve check: {len(requests)} requests, "
        f"{stats['service']['batches']} batch(es), "
        f"largest {stats['service']['largest_batch']}, "
        f"{stats['bulk_calls']['profile']} bulk profile / "
        f"{stats['bulk_calls']['evaluate']} bulk evaluate call(s), "
        f"hot hits {stats['hot_cache']['hits']}"
    )
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_serve(args) -> int:
    """Boot the always-on advisor service (or its --check self-test)."""
    import asyncio

    if args.check:
        return asyncio.run(_serve_check(args))
    try:
        return asyncio.run(_serve_forever(args))
    except KeyboardInterrupt:
        print("advisor stopped", file=sys.stderr)
        return 0


#: Sentinel distinguishing "--clear" (clear all) from "--clear EXP".
_KEEP = object()


def _cmd_figure(args) -> int:
    """Legacy figure alias: serial, cache-untouched, paper-style output."""
    if args.figure == "fig6":
        from repro.analysis.compression_study import fig6_heatmap, render_heatmap

        for name in args.benchmarks or ("FF_HPGMG", "356.sp", "ResNet50"):
            print(f"== {name} (.:1 -:2 +:3 #:4 sectors) ==")
            print(render_heatmap(fig6_heatmap(name)))
        return 0
    equivalent = " ".join(
        ["repro", "run", FIGURE_ALIASES[args.figure], *args.benchmarks]
    )
    print(
        f"warning: 'repro {args.figure}' is deprecated; use "
        f"'{equivalent}' (add --workers/--cache-dir for the cached, "
        "parallel engine)",
        file=sys.stderr,
    )
    return _run_one(FIGURE_ALIASES[args.figure], args)


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
        choices=("vectorized", "relaxed", "legacy"),
        default=None,
        help=(
            "simulator core for the timing studies (fig10/fig11): the "
            "batched vectorized engine (default, exact), the relaxed "
            "frozen-order tape engine (fastest across link sweeps; "
            "tolerance-pinned off the 150 GB/s reference point), or "
            "the per-access legacy oracle"
        ),
    )
    parser.add_argument(
        "--verify",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "with --engine relaxed: fraction of simulator runs "
            "cross-checked against the legacy oracle (deterministic "
            "per design point; 1.0 checks every run, raising on any "
            "contract breach)"
        ),
    )
    parser.add_argument(
        "--engine-spec",
        default=None,
        metavar="SPEC",
        help=(
            "unified engine selection, e.g. 'relaxed:verify=0.5' "
            "(subsumes --engine/--verify; see repro.gpusim.EngineSpec)"
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
        help="exit non-zero when the compiled extension is ABI-stale "
        "or 'repro check' reports errors",
    )
    doctor.set_defaults(func=_cmd_doctor)

    check = commands.add_parser(
        "check",
        help="static invariant analyzer: cache salts, determinism "
        "hazards, C-twin ABI drift, docs sync",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="machine-readable findings report",
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (the CI gate)",
    )
    check.set_defaults(func=_cmd_check)

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
    serve.add_argument(
        "--check",
        action="store_true",
        help="self-test instead of serving: fire a concurrent burst, "
        "assert coalescing and digest parity with 'repro run', exit 0/1",
    )
    serve.add_argument(
        "benchmarks",
        nargs="*",
        help="benchmarks exercised by --check (default: VGG16, 356.sp)",
    )
    serve.set_defaults(func=_cmd_serve)

    for alias in sorted(FIGURE_ALIASES) + ["fig6"]:
        figure = commands.add_parser(alias, help=f"paper {alias} (serial alias)")
        figure.add_argument(
            "benchmarks", nargs="*", help="optional benchmark subset"
        )
        figure.set_defaults(
            func=_cmd_figure,
            figure=alias,
            workers=1,
            cache=False,
            cache_dir=None,
            seed=rng_lib.DEFAULT_SEED,
            scale=None,
            quiet=True,
        )
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
