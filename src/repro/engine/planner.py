"""Sweep-level planning: ``plan`` → optimize → ``execute_plan``.

The figures of the paper are grids of design points that share almost
all of their inputs: the same benchmark snapshot runs, the same
columnar profile tensors, the same per-entry state tables — swept
across targets, thresholds and link speeds.  Resolving each point's
dependencies on its own (with the on-disk
:class:`~repro.engine.cache.ResultCache` as the only cross-point
sharing) would rebuild every benchmark's tensors once per sweep per
worker in a cold parallel Fig. 7 → Fig. 9 → Fig. 11 session.

This module makes the sharing explicit, and it is the one executor:
:meth:`~repro.engine.runner.ExperimentRunner.run` is a one-request
sweep, so single runs and sweeps share one pool, one cache lookup and
one offline ``CacheMiss``.  Each registered experiment may declare the
dependency graph of a design point (its ``plan_point`` hook returns
typed specs — :class:`ProfileTensorSpec`, :class:`EntryStateSpec`,
:class:`SnapshotsSpec`, :class:`TraceSpec`), and :func:`plan`
assembles the requests of a whole session into one DAG of typed
:class:`PlanNode` objects:

* **dedupe** — nodes are hash-addressed by the *same* content digests
  the profiler's disk cache uses (:func:`repro.core.profiler.
  tensor_cache_key` / :func:`~repro.core.profiler.entry_state_cache_key`),
  so two sweeps needing the same tensor reference one node, and
  predicted cache hits in ``repro plan --explain`` agree
  byte-for-byte with execution-time lookups;
* **merge** — profile-tensor nodes sharing a (snapshot config,
  algorithm) pair merge into a :class:`MergeGroup` executed by one
  mega-batched ``compressed_sizes`` call
  (:func:`repro.core.profiler.profile_tensors_bulk`); entries
  compress independently, so the merged call is bit-identical to
  per-benchmark builds while issuing strictly fewer bulk calls;
* **schedule** — :func:`execute_plan` runs the merged DAG in
  topological stages on the runner's process pool: stage 0 builds the
  shared artifacts into the artifact store over the runner's result
  cache (a private temporary root when the runner is cacheless),
  stage 1 executes every experiment's design points in one pool,
  each seeded and cached by its content digest, stage 2 aggregates in
  request order.

Results are therefore **bit-identical** to running each design point
alone with no stage 0 — the planner only changes *where* and *how
often* shared work happens, which the returned
:class:`ExecutionReport` counters pin (snapshot-run generations per
benchmark, stage-0 bulk compression calls).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any

from repro import rng as rng_lib
from repro.engine.cache import CacheKey, CacheMiss, ResultCache, param_digest
from repro.engine.registry import Experiment, get_experiment

_UNSET = object()


# ---------------------------------------------------------------------------
# Dependency specs: what an experiment's plan_point hook returns.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProfileTensorSpec:
    """A columnar profile tensor (benchmark run under one codec).

    Executable: the planner builds it in stage 0 (merged with every
    other spec sharing its (config, algorithm) pair into one bulk
    compression call) and stores it for the points.
    """

    benchmark: str
    config: Any  # SnapshotConfig
    algorithm: Any = None  # CompressionAlgorithm; None = BPC default


@dataclass(frozen=True)
class EntryStateSpec:
    """The per-entry compression state of one dump (simulator input).

    Executable: built in stage 0 (each build generates exactly one
    snapshot dump), deduped across every point that replays the dump.
    """

    benchmark: str
    config: Any  # SnapshotConfig
    index: int


@dataclass(frozen=True)
class SnapshotsSpec:
    """A benchmark's snapshot run at one config (statistics only).

    Dumps are too large to ship or cache; they are generated inside
    the tensor builds (or the point) that consume them.  Declaring the
    run still lets ``--explain`` show which points share it.
    """

    benchmark: str
    config: Any  # SnapshotConfig


@dataclass(frozen=True)
class TraceSpec:
    """A benchmark's synthetic kernel trace (statistics only).

    Traces are cheap to regenerate from a warm entry-state tensor and
    large to pickle, so the planner leaves them inside the points and
    only tracks the sharing.
    """

    benchmark: str
    trace_config: Any  # TraceConfig


@dataclass(frozen=True)
class TapeSpec:
    """A relaxed design point's frozen event tape.

    Executable: built in a second stage-0 wave (after the tensors and
    entry states it consumes), deduped by the ``sim.tape`` content
    digest across every relaxed point of every co-submitted sweep —
    one exact-order recording per ``(trace, state, geometry)``, loaded
    from the persistent cache when a previous session already recorded
    it.  All configs are the *normalized* values the point resolves at
    run time, so the plan-time digest matches the run-time lookup.
    """

    benchmark: str
    trace_config: Any  # TraceConfig
    profile_config: Any  # SnapshotConfig
    config: Any  # GPUConfig


# ---------------------------------------------------------------------------
# Plan nodes and the assembled plan.
# ---------------------------------------------------------------------------
@dataclass
class PlanNode:
    """One node of the merged sweep DAG."""

    kind: str  # profile_tensor | entry_state | snapshots | trace | tape | point | aggregate
    digest: str  # content digest (cache-compatible for executable kinds)
    label: str
    spec: Any = None
    deps: tuple[str, ...] = ()  # node ids this node consumes
    references: int = 0  # how many consumers named this node
    executable: bool = False  # stage-0 buildable (vs statistics-only)
    predicted_cached: bool = False  # disk cache already holds it
    needed: bool = False  # some non-cached point consumes it

    @property
    def node_id(self) -> str:
        return f"{self.kind}/{self.digest}"


@dataclass
class MergeGroup:
    """Profile-tensor nodes merged into one bulk compression call."""

    config: Any
    algorithm: Any
    benchmarks: tuple[str, ...]
    node_ids: tuple[str, ...]


@dataclass
class PlanRequest:
    """One experiment's slice of the plan."""

    experiment: Experiment
    params: dict
    points: list[dict]
    digests: list[str]
    predicted_hits: list[bool]

    @property
    def keys(self) -> list[CacheKey]:
        return [CacheKey(self.experiment.name, d) for d in self.digests]


@dataclass
class PlanStats:
    """Dedupe / merge / cache-prediction statistics of a plan."""

    experiments: int
    points: int
    predicted_point_hits: int
    shared_nodes: int
    shared_references: int
    deduped_references: int
    executable_nodes: int
    needed_nodes: int
    predicted_shared_hits: int
    merge_groups: int
    merged_nodes: int
    planned_bulk_calls: int  # serial semantics: one per merge group
    unplanned_bulk_calls: int  # one per merged tensor node


@dataclass
class Plan:
    """An optimized multi-experiment sweep, ready to execute."""

    requests: list[PlanRequest]
    shared: dict[str, PlanNode]  # node id -> node (insertion = discovery order)
    merge_groups: list[MergeGroup]
    entry_nodes: list[str]  # entry-state node ids to build in stage 0
    tape_nodes: list = field(default_factory=list)  # relaxed tapes, stage-0 wave 2
    seed: int = rng_lib.DEFAULT_SEED

    def stats(self) -> PlanStats:
        nodes = list(self.shared.values())
        executable = [n for n in nodes if n.executable]
        merged = sum(len(g.node_ids) for g in self.merge_groups)
        return PlanStats(
            experiments=len(self.requests),
            points=sum(len(r.points) for r in self.requests),
            predicted_point_hits=sum(
                sum(r.predicted_hits) for r in self.requests
            ),
            shared_nodes=len(nodes),
            shared_references=sum(n.references for n in nodes),
            deduped_references=sum(n.references for n in nodes) - len(nodes),
            executable_nodes=len(executable),
            needed_nodes=sum(n.needed for n in executable),
            predicted_shared_hits=sum(n.predicted_cached for n in executable),
            merge_groups=len(self.merge_groups),
            merged_nodes=merged,
            planned_bulk_calls=len(self.merge_groups),
            unplanned_bulk_calls=merged,
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Dedupe / merge / predicted-hit statistics (``repro plan``)."""
        stats = self.stats()
        lines = [
            f"plan: {stats.experiments} experiment(s), {stats.points} "
            f"point(s), {stats.predicted_point_hits} predicted cache hit(s)",
            f"shared nodes: {stats.shared_references} reference(s) -> "
            f"{stats.shared_nodes} unique ({stats.deduped_references} deduped), "
            f"{stats.predicted_shared_hits} predicted cached",
            f"merge: {stats.merged_nodes} tensor build(s) -> "
            f"{stats.planned_bulk_calls} bulk compression call(s) "
            f"(unplanned: {stats.unplanned_bulk_calls})",
        ]
        for request in self.requests:
            hits = sum(request.predicted_hits)
            lines.append(
                f"  [{request.experiment.name}] {len(request.points)} "
                f"point(s), {hits} predicted cached"
            )
        return "\n".join(lines)

    def explain(self) -> str:
        """:meth:`describe` plus the full node graph and merge groups."""
        lines = [self.describe()]
        if self.merge_groups:
            lines.append("merge groups:")
            for group in self.merge_groups:
                names = ", ".join(group.benchmarks)
                lines.append(
                    f"  bulk[{_config_label(group.config)}] "
                    f"{len(group.benchmarks)} build(s): {names}"
                )
        if self.shared:
            lines.append("nodes:")
            for node in self.shared.values():
                flags = []
                if node.executable:
                    flags.append("exec")
                if node.predicted_cached:
                    flags.append("cached")
                if node.needed:
                    flags.append("needed")
                lines.append(
                    f"  {node.kind:15s} {node.digest[:12]} refs={node.references}"
                    f" {' '.join(flags):17s} {node.label}"
                )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable plan description (``repro plan --json``)."""
        stats = self.stats()
        return {
            "stats": {
                "experiments": stats.experiments,
                "points": stats.points,
                "predicted_point_hits": stats.predicted_point_hits,
                "shared_nodes": stats.shared_nodes,
                "shared_references": stats.shared_references,
                "deduped_references": stats.deduped_references,
                "predicted_shared_hits": stats.predicted_shared_hits,
                "merge_groups": stats.merge_groups,
                "merged_nodes": stats.merged_nodes,
                "planned_bulk_calls": stats.planned_bulk_calls,
                "unplanned_bulk_calls": stats.unplanned_bulk_calls,
            },
            "requests": [
                {
                    "experiment": request.experiment.name,
                    "points": len(request.points),
                    "predicted_cache_hits": sum(request.predicted_hits),
                    "point_digests": list(request.digests),
                }
                for request in self.requests
            ],
            "nodes": [
                {
                    "kind": node.kind,
                    "digest": node.digest,
                    "label": node.label,
                    "references": node.references,
                    "executable": node.executable,
                    "predicted_cached": node.predicted_cached,
                    "needed": node.needed,
                }
                for node in self.shared.values()
            ],
            "merge_groups": [
                {
                    "config": _config_label(group.config),
                    "benchmarks": list(group.benchmarks),
                    "nodes": list(group.node_ids),
                }
                for group in self.merge_groups
            ],
        }


def _config_label(config) -> str:
    role = getattr(config, "role", "")
    scale = getattr(config, "scale", None)
    scale_text = f"scale=1/{round(1 / scale)}" if scale else ""
    return ":".join(part for part in (role, scale_text) if part)


def _default_algorithm():
    from repro.compression.bpc import BPCCompressor

    return BPCCompressor()


def _node_for_spec(spec) -> PlanNode:
    """Materialise one typed spec as a digest-addressed plan node."""
    from repro.core.profiler import entry_state_cache_key, tensor_cache_key

    if isinstance(spec, ProfileTensorSpec):
        algorithm = spec.algorithm or _default_algorithm()
        spec = ProfileTensorSpec(spec.benchmark, spec.config, algorithm)
        key = tensor_cache_key(spec.benchmark, spec.config, algorithm)
        return PlanNode(
            kind="profile_tensor",
            digest=key.digest,
            label=f"{spec.benchmark} [{_config_label(spec.config)}]",
            spec=spec,
            executable=True,
        )
    if isinstance(spec, EntryStateSpec):
        key = entry_state_cache_key(spec.benchmark, spec.config, spec.index)
        return PlanNode(
            kind="entry_state",
            digest=key.digest,
            label=(
                f"{spec.benchmark} dump {spec.index} "
                f"[{_config_label(spec.config)}]"
            ),
            spec=spec,
            executable=True,
        )
    if isinstance(spec, SnapshotsSpec):
        digest = param_digest(
            "plan.snapshots",
            {"benchmark": spec.benchmark, "config": spec.config},
        )
        return PlanNode(
            kind="snapshots",
            digest=digest,
            label=f"{spec.benchmark} [{_config_label(spec.config)}]",
            spec=spec,
        )
    if isinstance(spec, TraceSpec):
        digest = param_digest(
            "plan.trace",
            {"benchmark": spec.benchmark, "trace_config": spec.trace_config},
        )
        return PlanNode(
            kind="trace",
            digest=digest,
            label=f"{spec.benchmark}",
            spec=spec,
        )
    if isinstance(spec, TapeSpec):
        from repro.gpusim.vector_sim import tape_cache_key

        key = tape_cache_key(
            spec.benchmark, spec.trace_config, spec.profile_config, spec.config
        )
        return PlanNode(
            kind="tape",
            digest=key.digest,
            label=f"{spec.benchmark} tape",
            spec=spec,
            executable=True,
        )
    raise TypeError(f"unknown plan spec {type(spec).__qualname__}")


_CACHE_NAMESPACE = {
    "profile_tensor": "profile.tensor",
    "entry_state": "profile.entries",
    "tape": "sim.tape",
}


# ---------------------------------------------------------------------------
# plan(): expand, dedupe, merge.
# ---------------------------------------------------------------------------
def plan(requests, runner=None) -> Plan:
    """Assemble one or more experiment requests into an optimized plan.

    Args:
        requests: Iterable of experiment names or ``(name, params)``
            pairs (``params`` as for
            :meth:`~repro.engine.runner.ExperimentRunner.run`).
        runner: The runner the plan will execute on; its cache drives
            the predicted-hit annotations (default: serial, uncached).
    """
    from repro.engine.runner import ExperimentRunner, point_digests

    runner = runner if runner is not None else ExperimentRunner()
    shared: dict[str, PlanNode] = {}
    plan_requests: list[PlanRequest] = []
    for request in requests:
        if isinstance(request, str):
            name, params = request, None
        else:
            name, params = request
        experiment = get_experiment(name)
        resolved = experiment.resolve_params(params)
        points = experiment.expand(resolved)
        digests = point_digests(experiment, points, runner.seed)
        predicted = [
            runner.cache is not None
            and runner.cache.contains(CacheKey(experiment.name, digest))
            for digest in digests
        ]
        for point, hit in zip(points, predicted):
            if experiment.plan_point is not None:
                for spec in experiment.plan_point(point):
                    node = _node_for_spec(spec)
                    existing = shared.get(node.node_id)
                    if existing is None:
                        shared[node.node_id] = existing = node
                    existing.references += 1
                    if not hit:
                        existing.needed = True
        plan_requests.append(
            PlanRequest(
                experiment=experiment,
                params=resolved,
                points=points,
                digests=digests,
                predicted_hits=predicted,
            )
        )

    # Predicted disk hits for the executable shared nodes.
    if runner.cache is not None:
        for node in shared.values():
            if node.executable:
                node.predicted_cached = runner.cache.contains(
                    CacheKey(_CACHE_NAMESPACE[node.kind], node.digest)
                )

    # Merge: profile-tensor builds sharing (config, algorithm) become
    # one mega-batched bulk compression call.  Predicted-cached nodes
    # stay out — execution would only re-read them from disk.
    groups: dict[str, list[PlanNode]] = {}
    entry_nodes: list[str] = []
    tape_nodes: list[str] = []
    for node in shared.values():
        if not (node.executable and node.needed and not node.predicted_cached):
            continue
        if node.kind == "profile_tensor":
            group_key = param_digest(
                "plan.merge",
                {
                    "config": node.spec.config,
                    "algorithm": f"{type(node.spec.algorithm).__module__}."
                    f"{type(node.spec.algorithm).__qualname__}",
                },
            )
            groups.setdefault(group_key, []).append(node)
        elif node.kind == "entry_state":
            entry_nodes.append(node.node_id)
        elif node.kind == "tape":
            tape_nodes.append(node.node_id)
    merge_groups = [
        MergeGroup(
            config=nodes[0].spec.config,
            algorithm=nodes[0].spec.algorithm,
            benchmarks=tuple(node.spec.benchmark for node in nodes),
            node_ids=tuple(node.node_id for node in nodes),
        )
        for nodes in groups.values()
    ]
    return Plan(
        requests=plan_requests,
        shared=shared,
        merge_groups=merge_groups,
        entry_nodes=entry_nodes,
        tape_nodes=tape_nodes,
        seed=runner.seed,
    )


# ---------------------------------------------------------------------------
# execute_plan(): stage 0 shared builds, stage 1 points, stage 2 reduce.
# ---------------------------------------------------------------------------
@dataclass
class ExecutionReport:
    """What one :func:`execute_plan` call did (counter-pinned).

    ``generation_tally`` maps ``(benchmark, config label, kind)`` to
    the number of snapshot-run generations stage 0 performed for that
    artifact — the planned-sweep guarantee is that every value is at
    most 1 (each benchmark's snapshots are generated at most once).
    ``bulk_compression_calls`` counts stage-0 stacked
    ``compressed_sizes`` calls (serial plans: one per merge group).
    ``tape_recordings`` counts exact-order relaxed-tape recordings
    across stage 0 — the planned-sweep guarantee is one per deduped
    ``(trace, state, geometry)`` tape node, and zero on warm caches.
    """

    seconds: float = 0.0
    shared_built: int = 0
    shared_reused: int = 0  # store hits among scheduled builds
    snapshot_generations: int = 0
    generation_tally: dict = field(default_factory=dict)
    bulk_compression_calls: int = 0
    tape_recordings: int = 0
    points: int = 0
    point_cache_hits: int = 0
    points_executed: int = 0

    @property
    def max_generations_per_artifact(self) -> int:
        return max(self.generation_tally.values(), default=0)

    def summary(self) -> str:
        return (
            f"planned: {self.shared_built} shared artifact(s) built "
            f"({self.shared_reused} reused, "
            f"{self.bulk_compression_calls} bulk call(s), "
            f"{self.snapshot_generations} snapshot run(s)); "
            f"{self.point_cache_hits}/{self.points} point(s) cached"
        )


@dataclass
class SweepResult:
    """Everything a planned sweep produced."""

    values: list[Any]  # one aggregate per request, in request order
    reports: list  # one RunReport per request
    execution: ExecutionReport
    plan: Plan


@dataclass(frozen=True)
class _SharedTask:
    """One stage-0 build task (pickle-safe for the process pool)."""

    kind: str  # "profile" | "entry" | "tape"
    benchmarks: tuple[str, ...]
    config: Any
    algorithm: Any = None
    index: int = 0
    node_ids: tuple[str, ...] = ()
    trace_config: Any = None  # tape tasks only
    gpu_config: Any = None  # tape tasks only


def _execute_shared_task(task: _SharedTask, cache_root, cache_max_bytes):
    """Build one stage-0 task's artifacts (module-level, pool-safe).

    The artifacts land in the process artifact store, whose disk tier
    is the result cache at ``cache_root`` for the task's duration —
    where stage-1 points, in any worker, read them.  Returns
    ``(built_node_ids, bulk_calls, recordings)``: the nodes actually
    built (store hits excluded) and the bulk compression calls and
    exact-order tape recordings this task performed.
    """
    from repro.core import profiler
    from repro.gpusim import vector_sim

    previous = profiler.set_tensor_cache(
        ResultCache(cache_root, max_bytes=cache_max_bytes)
    )
    calls_before = profiler.bulk_compression_call_count()
    recordings_before = vector_sim.tape_recording_count()
    built: list[str] = []
    try:
        if task.kind == "profile":
            freshly_built: list[str] = []
            profiler.profile_tensors_bulk(
                task.benchmarks, task.config, task.algorithm,
                built=freshly_built,
            )
            fresh = set(freshly_built)
            built.extend(
                node_id
                for benchmark, node_id in zip(task.benchmarks, task.node_ids)
                if benchmark in fresh
            )
        elif task.kind == "tape":
            from repro.analysis.perf_study import prepare_tape

            prepare_tape(
                task.benchmarks[0],
                task.gpu_config,
                task.trace_config,
                task.config,
            )
            if vector_sim.tape_recording_count() > recordings_before:
                built.append(task.node_ids[0])
        else:
            before = profiler.entry_state_build_count()
            profiler.entry_state_tensor(
                task.benchmarks[0], task.config, task.index
            )
            if profiler.entry_state_build_count() > before:
                built.append(task.node_ids[0])
    finally:
        profiler.set_tensor_cache(previous)
    calls = profiler.bulk_compression_call_count() - calls_before
    recordings = vector_sim.tape_recording_count() - recordings_before
    return tuple(built), calls, recordings


def _chunk(sequence, parts: int) -> list[tuple]:
    """Split ``sequence`` into at most ``parts`` contiguous chunks."""
    items = list(sequence)
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    chunks, start = [], 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        chunks.append(tuple(items[start:end]))
        start = end
    return chunks


def _stage_zero_tasks(sweep_plan: Plan, workers: int) -> list[_SharedTask]:
    """Stage-0 schedule: merged groups (chunked across the pool) and
    entry-state builds.

    Serial execution keeps every merge group as ONE mega-batched bulk
    call; with ``workers > 1`` a group may split into up to ``workers``
    chunks (each still a bulk call over several benchmarks) so the
    pool's cores all contribute — still strictly fewer calls than the
    per-benchmark unplanned path.
    """
    tasks: list[_SharedTask] = []
    for group in sweep_plan.merge_groups:
        pairs = list(zip(group.benchmarks, group.node_ids))
        for chunk in _chunk(pairs, workers):
            tasks.append(
                _SharedTask(
                    kind="profile",
                    benchmarks=tuple(b for b, _ in chunk),
                    config=group.config,
                    algorithm=group.algorithm,
                    node_ids=tuple(n for _, n in chunk),
                )
            )
    for node_id in sweep_plan.entry_nodes:
        node = sweep_plan.shared[node_id]
        tasks.append(
            _SharedTask(
                kind="entry",
                benchmarks=(node.spec.benchmark,),
                config=node.spec.config,
                index=node.spec.index,
                node_ids=(node_id,),
            )
        )
    return tasks


def _tape_tasks(sweep_plan: Plan) -> list[_SharedTask]:
    """Stage-0 wave 2: record-or-load each deduped relaxed tape.

    Runs after the tensor / entry-state wave — a tape recording
    consumes both — so it reads those artifacts from the store: the
    memory tier serially, the shared disk tier across the pool.
    """
    tasks: list[_SharedTask] = []
    for node_id in sweep_plan.tape_nodes:
        node = sweep_plan.shared[node_id]
        tasks.append(
            _SharedTask(
                kind="tape",
                benchmarks=(node.spec.benchmark,),
                config=node.spec.profile_config,
                trace_config=node.spec.trace_config,
                gpu_config=node.spec.config,
                node_ids=(node_id,),
            )
        )
    return tasks


def _drain(pool, calls, finish) -> None:
    """Run ``(tag, fn, *args)`` calls and hand each result to
    ``finish(tag, result)`` as it completes.

    The one pool-or-inline executor of :func:`execute_plan`, shared by
    both stage-0 waves and stage 1: on ``pool`` when one is given,
    inline (in call order) otherwise.  Results are finished as they
    arrive, not after the whole batch, so an interrupted sweep keeps
    its completed work and the rerun is incremental.
    """
    if pool is None:
        for tag, fn, *args in calls:
            finish(tag, fn(*args))
        return
    futures = {pool.submit(fn, *args): tag for tag, fn, *args in calls}
    outstanding = set(futures)
    while outstanding:
        done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
        for future in done:
            finish(futures[future], future.result())


def execute_plan(sweep_plan: Plan, runner=None) -> SweepResult:
    """Execute an optimized plan on a runner's pool, bit-identically.

    Stage 0 builds every needed shared artifact (merge groups as bulk
    compression calls, entry states individually, then relaxed tapes)
    into the artifact store, whose disk tier is the runner's result
    cache.  Stage 1 executes all requests' design points in one pool,
    each seeded from its :func:`~repro.engine.runner.point_digests`
    digest and cached under it, reading the stage-0 artifacts back
    from that disk tier.  A cacheless runner gets a private temporary
    root for both stages, deleted afterwards, so it shares artifacts
    exactly like a cached one.  Stage 2 aggregates in request order.
    """
    from repro.engine.runner import ExperimentRunner, RunReport, run_point_seeded

    runner = runner if runner is not None else ExperimentRunner()
    started = time.perf_counter()
    report = ExecutionReport()
    report.points = sum(len(r.points) for r in sweep_plan.requests)

    tasks = _stage_zero_tasks(sweep_plan, runner.workers)

    # Cache lookups happen before the pool spins up, so a fully warm
    # sweep stays a cheap serial pass (and stage 0 is skipped for
    # nodes no pending point needs — `needed` covered that at plan
    # time; the read-through below covers plan/execute races).
    per_request_results: list[list[Any]] = []
    per_request_pending: list[list[int]] = []
    hits_per_request: list[int] = []
    for request in sweep_plan.requests:
        results: list[Any] = [_UNSET] * len(request.points)
        pending: list[int] = []
        hits = 0
        for index, key in enumerate(request.keys):
            if runner.cache is not None:
                try:
                    results[index] = runner.cache.get(key)
                    hits += 1
                    continue
                except CacheMiss:
                    pass
            pending.append(index)
        if pending and runner.offline:
            missing = ", ".join(request.digests[i] for i in pending[:4])
            raise CacheMiss(
                f"{request.experiment.name}: {len(pending)} of "
                f"{len(request.points)} design point(s) not cached "
                f"(e.g. {missing}); rerun without --from-cache to "
                "populate the cache"
            )
        per_request_results.append(results)
        per_request_pending.append(pending)
        hits_per_request.append(hits)
    report.point_cache_hits = sum(hits_per_request)

    total_pending = sum(len(p) for p in per_request_pending)
    use_pool = runner.workers > 1 and (len(tasks) + total_pending) > 1

    private_root = None
    if runner.cache is None:
        private_root = tempfile.mkdtemp(prefix="repro-plan-")
        cache_root, cache_max = private_root, None
    else:
        cache_root = str(runner.cache.root)
        cache_max = runner.cache.max_bytes
    pool = None
    try:
        if use_pool:
            pool = ProcessPoolExecutor(max_workers=runner.workers)

        # ---- Stage 0: shared artifacts -------------------------------
        def account(task: _SharedTask, outcome) -> None:
            built, calls, recordings = outcome
            report.shared_built += len(built)
            report.shared_reused += len(task.node_ids) - len(built)
            report.bulk_compression_calls += calls
            report.tape_recordings += recordings
            if task.kind == "tape":
                # Tape recordings are accounted separately; they are
                # replays of already-tallied snapshot artifacts.
                return
            report.snapshot_generations += len(built)
            for node_id in built:
                node = sweep_plan.shared[node_id]
                tally_key = (
                    node.spec.benchmark,
                    _config_label(node.spec.config),
                    node.kind,
                )
                report.generation_tally[tally_key] = (
                    report.generation_tally.get(tally_key, 0) + 1
                )

        if total_pending:
            # Tapes build in a second wave: a recording consumes the
            # tensors and entry states the first wave produced.
            for wave in (tasks, _tape_tasks(sweep_plan)):
                _drain(
                    pool,
                    [
                        (task, _execute_shared_task, task, cache_root, cache_max)
                        for task in wave
                    ],
                    account,
                )

        # ---- Stage 1: design points (one pool, all experiments) ------
        def finish(where: tuple[int, int], value) -> None:
            request_index, point_index = where
            per_request_results[request_index][point_index] = value
            if runner.cache is not None:
                request = sweep_plan.requests[request_index]
                runner.cache.put(request.keys[point_index], value)

        _drain(
            pool,
            [
                (
                    (request_index, point_index),
                    run_point_seeded,
                    request.experiment.run_point,
                    request.points[point_index],
                    rng_lib.stream_seed(
                        f"engine/{request.experiment.name}/"
                        f"{request.digests[point_index]}",
                        runner.seed,
                    ),
                    cache_root,
                    cache_max,
                )
                for request_index, request in enumerate(sweep_plan.requests)
                for point_index in per_request_pending[request_index]
            ],
            finish,
        )
    finally:
        if pool is not None:
            pool.shutdown()
        if private_root is not None:
            shutil.rmtree(private_root, ignore_errors=True)

    report.points_executed = total_pending

    # ---- Stage 2: aggregate in request order -------------------------
    values: list[Any] = []
    reports: list[RunReport] = []
    elapsed = time.perf_counter() - started
    for request, results, pending, hits in zip(
        sweep_plan.requests,
        per_request_results,
        per_request_pending,
        hits_per_request,
    ):
        values.append(request.experiment.aggregate(results, request.params))
        reports.append(
            RunReport(
                experiment=request.experiment.name,
                points=len(request.points),
                executed=len(pending),
                cache_hits=hits,
                workers=runner.workers,
                seconds=elapsed,
            )
        )
    report.seconds = time.perf_counter() - started
    return SweepResult(
        values=values, reports=reports, execution=report, plan=sweep_plan
    )
