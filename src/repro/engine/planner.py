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
:class:`TraceSpec`, :class:`TapeSpec` — that all implement the
:class:`ArtifactSpec` protocol), and :func:`plan`
assembles the requests of a whole session into one DAG of typed
:class:`PlanNode` objects, treating every kind alike:

* **dedupe** — nodes are hash-addressed by each spec's
  :meth:`~ArtifactSpec.cache_key`, the *same* content digests the
  artifact store uses, so two sweeps needing the same tensor reference
  one node, and predicted cache hits in ``repro plan --explain`` agree
  byte-for-byte with execution-time lookups;
* **merge** — needed builds sharing a :meth:`~ArtifactSpec.merge_key`
  (profile tensors of one (snapshot config, algorithm) pair) merge
  into a :class:`MergeGroup` built by one mega-batched
  ``compressed_sizes`` call; entries compress independently, so the
  merged call is bit-identical to per-benchmark builds while issuing
  strictly fewer bulk calls;
* **schedule** — :func:`execute_plan` runs the merged DAG in
  topological stages on the runner's process pool: stage 0 builds the
  shared artifacts into the artifact store over the runner's result
  cache (a private temporary root when the runner is cacheless), one
  wave per :meth:`~ArtifactSpec.deps` depth, stage 1 executes every
  experiment's design points in one pool, each seeded and cached by
  its content digest, stage 2 aggregates in request order.

Results are therefore **bit-identical** to running each design point
alone with no stage 0 — the planner only changes *where* and *how
often* shared work happens, which the returned
:class:`ExecutionReport` counters pin (artifacts built and reused,
snapshot-run generations, tape recordings, stage-0 bulk compression
calls).  Every kind builds through the artifact store, so what stage 0
built is read from the store's own per-namespace ``stores`` counts.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Any

from repro import rng as rng_lib
from repro.engine.cache import CacheKey, CacheMiss, ResultCache, param_digest
from repro.engine.registry import Experiment, get_experiment, resolve
from repro.engine.store import install, process_store

_UNSET = object()


# ---------------------------------------------------------------------------
# Dependency specs: what an experiment's plan_point hook returns.
# ---------------------------------------------------------------------------
class ArtifactSpec:
    """The artifact protocol every plan spec implements.

    ``kind`` names the node kind and :meth:`cache_key` (store namespace
    plus content digest) its identity.  The classmethod ``build(specs)``
    resolves a tuple of same-kind specs' artifacts through the process
    artifact store, building and storing only the ones it lacks, and
    returns nothing: the planner reads how many it built from the
    store's ``stores`` count for the kind's namespace.  Specs with one
    non-``None`` :meth:`merge_key` share a call, and :meth:`deps` (the
    specs a build consumes) orders the stage-0 waves.
    """

    kind = ""

    def cache_key(self) -> CacheKey:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def deps(self) -> tuple:
        return ()

    def merge_key(self) -> str | None:
        return None


@dataclass(frozen=True)
class ProfileTensorSpec(ArtifactSpec):
    """A columnar profile tensor (benchmark run under one codec).

    Executable: the planner builds it in stage 0 (merged with every
    other spec sharing its (config, algorithm) pair into one bulk
    compression call) and stores it for the points.
    """

    benchmark: str
    config: Any  # SnapshotConfig
    algorithm: Any = None  # CompressionAlgorithm; None = BPC default

    kind = "profile_tensor"

    def _algorithm(self):
        from repro.compression.bpc import BPCCompressor

        return self.algorithm or BPCCompressor()

    def cache_key(self) -> CacheKey:
        from repro.core.profiler import tensor_cache_key

        return tensor_cache_key(self.benchmark, self.config, self._algorithm())

    def label(self) -> str:
        return f"{self.benchmark} [{_config_label(self.config)}]"

    def merge_key(self) -> str:
        algorithm = type(self._algorithm())
        return param_digest(
            "plan.merge",
            {
                "config": self.config,
                "algorithm": f"{algorithm.__module__}.{algorithm.__qualname__}",
            },
        )

    @classmethod
    def build(cls, specs) -> None:
        from repro.core.profiler import profile_tensors_bulk

        profile_tensors_bulk(
            [spec.benchmark for spec in specs],
            specs[0].config,
            specs[0]._algorithm(),
        )


@dataclass(frozen=True)
class EntryStateSpec(ArtifactSpec):
    """The per-entry compression state of one dump (simulator input).

    Executable: built in stage 0 (each build generates exactly one
    snapshot dump), deduped across every point that replays the dump.
    """

    benchmark: str
    config: Any  # SnapshotConfig
    index: int

    kind = "entry_state"

    def cache_key(self) -> CacheKey:
        from repro.core.profiler import entry_state_cache_key

        return entry_state_cache_key(self.benchmark, self.config, self.index)

    def label(self) -> str:
        return (
            f"{self.benchmark} dump {self.index} "
            f"[{_config_label(self.config)}]"
        )

    @classmethod
    def build(cls, specs) -> None:
        from repro.core.profiler import entry_state_tensor

        for spec in specs:
            entry_state_tensor(spec.benchmark, spec.config, spec.index)


@dataclass(frozen=True)
class TraceSpec(ArtifactSpec):
    """A benchmark's synthetic kernel trace (simulator input).

    Executable: built in the stage-0 wave after the entry state its
    layout reads, by :func:`~repro.workloads.traces.stored_trace` —
    the call every consuming point reads it back by — so a sweep
    generates each distinct trace once and a warm sweep generates
    none.  Traces live in the store's disk tier only.
    """

    benchmark: str
    trace_config: Any  # TraceConfig

    kind = "trace"

    def cache_key(self) -> CacheKey:
        from repro.workloads.traces import trace_cache_key

        return trace_cache_key(self.benchmark, self.trace_config)

    def label(self) -> str:
        return f"{self.benchmark}"

    def deps(self) -> tuple:
        # The per-entry state of the dump supplying the trace layout.
        return (
            EntryStateSpec(
                self.benchmark,
                self.trace_config.snapshot_config,
                self.trace_config.snapshot_index,
            ),
        )

    @classmethod
    def build(cls, specs) -> None:
        from repro.workloads.traces import stored_trace

        for spec in specs:
            stored_trace(spec.benchmark, spec.trace_config)


@dataclass(frozen=True)
class TapeSpec(ArtifactSpec):
    """A relaxed design point's frozen event tape.

    Executable: built in a later stage-0 wave than the entry state,
    profile tensor and trace it consumes (its :meth:`deps`), deduped
    by the ``sim.tape`` content digest across every relaxed point of
    every co-submitted sweep — one exact-order recording per
    ``(trace, state, geometry)``, loaded from the persistent cache
    when a previous session already recorded it.  Its configs are the
    point's own resolved values, the ones the point passes at run
    time, so the plan-time digest matches the run-time lookup.
    """

    benchmark: str
    trace_config: Any  # TraceConfig
    profile_config: Any  # SnapshotConfig
    config: Any  # GPUConfig

    kind = "tape"

    def cache_key(self) -> CacheKey:
        from repro.gpusim.vector_sim import tape_cache_key

        return tape_cache_key(
            self.benchmark, self.trace_config, self.profile_config, self.config
        )

    def label(self) -> str:
        return f"{self.benchmark} tape"

    def deps(self) -> tuple:
        # The trace, its layout's dump and the target-selection profile.
        return (
            EntryStateSpec(
                self.benchmark,
                self.trace_config.snapshot_config,
                self.trace_config.snapshot_index,
            ),
            ProfileTensorSpec(self.benchmark, self.profile_config.as_profile()),
            TraceSpec(self.benchmark, self.trace_config),
        )

    @classmethod
    def build(cls, specs) -> None:
        from repro.analysis.perf_study import prepare_tape

        for spec in specs:
            prepare_tape(
                spec.benchmark, spec.config, spec.trace_config, spec.profile_config
            )


# ---------------------------------------------------------------------------
# Plan nodes and the assembled plan.
# ---------------------------------------------------------------------------
@dataclass
class PlanNode:
    """One node of the merged sweep DAG."""

    kind: str  # the spec's ArtifactSpec.kind
    digest: str  # the spec's cache_key() digest
    label: str
    spec: Any = None
    references: int = 0  # how many consumers named this node
    predicted_cached: bool = False  # disk cache already holds it
    needed: bool = False  # some non-cached point consumes it

    @property
    def node_id(self) -> str:
        return f"{self.kind}/{self.digest}"

    @property
    def scheduled(self) -> bool:
        """Stage 0 builds this node."""
        return self.needed and not self.predicted_cached


@dataclass
class MergeGroup:
    """Nodes sharing a merge key, built by one ``build`` call."""

    config: Any
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
    seed: int = rng_lib.DEFAULT_SEED

    def stats(self) -> PlanStats:
        nodes = list(self.shared.values())
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
            predicted_shared_hits=sum(n.predicted_cached for n in nodes),
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
                if node.predicted_cached:
                    flags.append("cached")
                if node.needed:
                    flags.append("needed")
                lines.append(
                    f"  {node.kind:15s} {node.digest[:12]} refs={node.references}"
                    f" {' '.join(flags):13s} {node.label}"
                )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable plan description (``repro plan --json``)."""
        return {
            "stats": asdict(self.stats()),
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
                {name: getattr(node, name) for name in _NODE_JSON_FIELDS}
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


_NODE_JSON_FIELDS = (
    "kind", "digest", "label", "references", "predicted_cached", "needed",
)


def _config_label(config) -> str:
    role = getattr(config, "role", "")
    scale = getattr(config, "scale", None)
    scale_text = f"scale=1/{round(1 / scale)}" if scale else ""
    return ":".join(part for part in (role, scale_text) if part)


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
                for spec in resolve(experiment.plan_point)(point):
                    key = spec.cache_key()
                    node_id = f"{spec.kind}/{key.digest}"
                    node = shared.get(node_id)
                    if node is None:
                        shared[node_id] = node = PlanNode(
                            kind=spec.kind,
                            digest=key.digest,
                            label=spec.label(),
                            spec=spec,
                            predicted_cached=runner.cache is not None
                            and runner.cache.contains(key),
                        )
                    node.references += 1
                    if not hit:
                        node.needed = True
        plan_requests.append(
            PlanRequest(
                experiment=experiment,
                params=resolved,
                points=points,
                digests=digests,
                predicted_hits=predicted,
            )
        )

    # Merge: scheduled builds sharing a merge key (profile tensors of
    # one (config, algorithm) pair) become one mega-batched bulk
    # compression call.  Predicted-cached nodes stay out — execution
    # would only re-read them from disk.
    groups: dict[str, list[PlanNode]] = {}
    for node in shared.values():
        merge_key = node.spec.merge_key() if node.scheduled else None
        if merge_key is not None:
            groups.setdefault(merge_key, []).append(node)
    merge_groups = [
        MergeGroup(
            config=nodes[0].spec.config,
            benchmarks=tuple(node.spec.benchmark for node in nodes),
            node_ids=tuple(node.node_id for node in nodes),
        )
        for nodes in groups.values()
    ]
    return Plan(
        requests=plan_requests,
        shared=shared,
        merge_groups=merge_groups,
        seed=runner.seed,
    )


# ---------------------------------------------------------------------------
# execute_plan(): stage 0 shared builds, stage 1 points, stage 2 reduce.
# ---------------------------------------------------------------------------
@dataclass
class ExecutionReport:
    """What one :func:`execute_plan` call did (counter-pinned).

    Stage 0's counts come from the artifact store's own ``stores``
    counts: ``shared_built`` is how many scheduled nodes' artifacts
    were built and stored, ``shared_reused`` how many the store held
    already (stored after planning, or resident in the process's
    memory tier but not on disk).  Of the
    built ones, ``snapshot_generations`` are the kinds with no
    :meth:`~ArtifactSpec.deps`, each generated from snapshot runs —
    so a cold serial plan generates each scheduled root exactly once
    — and ``tape_recordings`` the exact-order relaxed tapes, one per
    deduped ``(trace, state, geometry)`` tape node and none on warm
    caches.  ``bulk_compression_calls`` counts stage-0 stacked
    ``compressed_sizes`` calls (serial plans: one per merge group).
    """

    seconds: float = 0.0
    shared_built: int = 0
    shared_reused: int = 0  # store hits among scheduled builds
    snapshot_generations: int = 0
    bulk_compression_calls: int = 0
    tape_recordings: int = 0
    points: int = 0
    point_cache_hits: int = 0
    points_executed: int = 0

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


def _execute_shared_task(specs: tuple, cache_root, cache_max_bytes):
    """Build one stage-0 task's specs (module-level, pool-safe).

    ``specs`` share a kind (and a merge key when there are several);
    the kind's ``build`` stores their artifacts in the process
    artifact store, whose disk tier is the result cache at
    ``cache_root`` for the task's duration — where stage-1 points, in
    any worker, read them.  Returns ``(built, bulk_calls)``: how many
    of the specs' artifacts the task built — the rise of the store's
    ``stores`` count in their namespace, so store hits are not counted
    — and the bulk compression calls it issued.
    """
    from repro.core.profiler import bulk_compression_call_count

    namespace = specs[0].cache_key().experiment
    previous = install(ResultCache(cache_root, max_bytes=cache_max_bytes))
    stores_before = _stores(namespace)
    calls_before = bulk_compression_call_count()
    try:
        specs[0].build(specs)
    finally:
        install(previous)
    return (
        _stores(namespace) - stores_before,
        bulk_compression_call_count() - calls_before,
    )


def _stores(namespace: str) -> int:
    """The process store's ``stores`` count in ``namespace``."""
    return process_store().stats.per_namespace.get(namespace, (0, 0, 0))[2]


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


def _depth(spec) -> int:
    """A spec's stage-0 wave: one past the deepest spec it consumes."""
    return 1 + max((_depth(dep) for dep in spec.deps()), default=-1)


def _stage_zero_waves(sweep_plan: Plan, workers: int) -> list[list[tuple]]:
    """Stage-0 schedule: one wave of node-id tasks per ``deps()`` depth.

    A wave lists its merge groups, then its single builds, each in
    discovery order; later waves read what earlier ones stored.  A
    serial run keeps every merge group as ONE bulk build; with
    ``workers > 1`` a group splits into up to ``workers`` chunks (each
    still a bulk call over several benchmarks) so every core helps.
    """
    waves: dict[int, list[tuple]] = {}
    merged: set[str] = set()
    for group in sweep_plan.merge_groups:
        depth = _depth(sweep_plan.shared[group.node_ids[0]].spec)
        waves.setdefault(depth, []).extend(_chunk(group.node_ids, workers))
        merged.update(group.node_ids)
    for node_id, node in sweep_plan.shared.items():
        if node.scheduled and node_id not in merged:
            waves.setdefault(_depth(node.spec), []).append((node_id,))
    return [waves.get(depth, []) for depth in range(max(waves, default=0) + 1)]


def _drain(pool, calls, finish) -> None:
    """Run ``(tag, fn, *args)`` calls and hand each result to
    ``finish(tag, result)`` as it completes.

    The one pool-or-inline executor of :func:`execute_plan`, shared by
    every stage-0 wave and stage 1: on ``pool`` when one is given,
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
    calls, other specs one by one), wave by ``deps()`` depth, into the
    artifact store, whose disk tier is the runner's result cache.
    Stage 1 executes all requests' design points in one pool,
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

    waves = _stage_zero_waves(sweep_plan, runner.workers)

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
    # The first wave and stage 1 decide the pool; later waves run on
    # whatever they chose.
    use_pool = runner.workers > 1 and (len(waves[0]) + total_pending) > 1

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
        def account(node_ids: tuple, outcome) -> None:
            built, calls = outcome
            spec = sweep_plan.shared[node_ids[0]].spec
            report.shared_built += built
            report.shared_reused += len(node_ids) - built
            report.bulk_compression_calls += calls
            if not spec.deps():
                # Generated from snapshot runs, not from stored artifacts.
                report.snapshot_generations += built
            if isinstance(spec, TapeSpec):
                report.tape_recordings += built

        if total_pending:
            for wave in waves:
                _drain(
                    pool,
                    [
                        (
                            node_ids,
                            _execute_shared_task,
                            tuple(sweep_plan.shared[n].spec for n in node_ids),
                            cache_root,
                            cache_max,
                        )
                        for node_ids in wave
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
