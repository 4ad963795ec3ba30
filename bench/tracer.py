"""Layer spans recorded from outside the program.

:func:`install` wraps the public bulk boundary of each pipeline layer
(:data:`TARGETS`) in a span recorder and rebinds *every* alias of each
wrapped function found in ``sys.modules`` — consumers bind functions
with ``from x import f`` (``serve/advisor.py`` holds its own
``profile_tensors_bulk``), so patching the defining module alone would
miss calls.  Per-access functions (``MetadataCache.access_entry``,
``um.pages.touch``) are deliberately not wrapped: they run millions of
times and the wrapper would dominate what it measures.

A span records its name, start, end, parent span, process and the
round (or request phase) id.  Spans stay in memory; a forked pool
worker inherits the wrappers and appends its spans to the trace
directory after each task, every other process when its job ends.
Self time is a span's duration minus the spans it directly caused in
the same process.  :func:`aggregate` turns a directory of spans into
the per-layer metrics of ``BENCHMARK.json``; :func:`write_outputs`
writes them with a Chrome trace-event file for Perfetto.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
from collections import defaultdict
from pathlib import Path

from child import now_ns, program_counters

_STATE = None


def _blocks(args, error, start):
    return {"codec": getattr(args[0], "name", type(args[0]).__name__), "blocks": len(args[1])}


def _exact_events(args, error, start):
    # One scheduler pop per trace row plus one warp-end per warp.
    return {"events": len(args[0][0]) + int(args[1][0])}


def _replay_events(args, error, start):
    links = len(args[3]) if len(args) > 3 and isinstance(args[3], list) else 1
    return {"events": len(args[0][0]), "links": links}


def _cache_get(args, error, start):
    key = args[1]
    info = {"ns": key.experiment, "hit": error is None}
    if error is None:
        info["bytes"] = _size(args[0].path_for(key))
    return info


def _cache_put(args, error, start):
    return {"ns": args[1].experiment, "bytes": _size(args[0].path_for(args[1]))}


def _size(path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _batch(args, error, start):
    """One service batch: its size and how long its requests queued."""
    submitted = _STATE.submitted
    waits = [start - submitted.pop(id(item.request), start) for item in args[1]]
    return {"size": len(args[1]), "wait_ns": sum(waits)}


def _pool_task(args, error, start):
    return {"worker": os.getpid() != _STATE.origin_pid}


#: (module, attribute, span name, span-args function).  Bulk
#: boundaries only; each entry is one layer's public entry point.
TARGETS = [
    ("repro.compression.base", "CompressionAlgorithm.compressed_sizes", "compression.compressed_sizes", _blocks),
    ("repro.compression.bpc", "BPCCompressor.compressed_sizes", "compression.compressed_sizes", _blocks),
    ("repro.compression.bdi", "BDICompressor.compressed_sizes", "compression.compressed_sizes", _blocks),
    ("repro.compression.fpc", "FPCCompressor.compressed_sizes", "compression.compressed_sizes", _blocks),
    ("repro.compression.cpack", "CPackCompressor.compressed_sizes", "compression.compressed_sizes", _blocks),
    ("repro.compression.zeroblock", "ZeroBlockCompressor.compressed_sizes", "compression.compressed_sizes", _blocks),
    ("repro.workloads.snapshots", "generate_snapshot", "workloads.generate_snapshot", None),
    ("repro.workloads.traces", "generate_trace", "workloads.generate_trace", None),
    ("repro.workloads.traces", "layout_state", "workloads.layout_state", None),
    ("repro.core.profiler", "profile_tensors_bulk", "core.profile_tensors_bulk", None),
    ("repro.core.profiler", "profile_tensor", "core.profile_tensor", None),
    ("repro.core.profiler", "entry_state_tensor", "core.entry_state_tensor", None),
    ("repro.core.controller", "evaluate_selections_batch", "core.evaluate_selections_batch", None),
    ("repro.gpusim._event_core", "run_exact", "gpusim.run_exact", _exact_events),
    ("repro.gpusim._event_core", "replay_tape_many", "gpusim.replay_tape_many", _replay_events),
    ("repro.gpusim._event_core", "replay_tape", "gpusim.replay_tape", _replay_events),
    ("repro.gpusim.simulator", "DependencyDrivenSimulator.run", "gpusim.simulator_run", None),
    ("repro.gpusim.vector_sim", "replay_links", "gpusim.replay_links", None),
    ("repro.analysis.metadata_study", "metadata_row", "analysis.metadata_row", None),
    ("repro.analysis.um_study", "um_benchmark_curve", "um.um_benchmark_curve", None),
    ("repro.engine.planner", "plan", "engine.plan", None),
    ("repro.engine.planner", "execute_plan", "engine.execute_plan", None),
    ("repro.engine.runner", "run_point_seeded", "engine.pool_task", _pool_task),
    ("repro.engine.planner", "_execute_shared_task", "engine.pool_task", _pool_task),
    ("repro.engine.cache", "ResultCache.get", "engine.cache_get", _cache_get),
    ("repro.engine.cache", "ResultCache.put", "engine.cache_put", _cache_put),
    ("repro.serve.advisor", "advise_batch", "serve.advise_batch", None),
    ("repro.serve.service", "AdvisorService._execute", "serve.batch", _batch),
    # No span: submit is a coroutine; it only notes arrival times.
    ("repro.serve.service", "AdvisorService.submit", None, None),
]


class _Tracer:
    """One process's spans, open-span stack and counter baseline."""

    def __init__(self, out_dir: str, rid, spawn_ns: int | None) -> None:
        self.out = Path(out_dir)
        self.rid = rid
        self.origin_pid = os.getpid()
        self.spawn_ns = spawn_ns
        self.submitted: dict[int, int] = {}
        self._reset(parent=None)

    def _reset(self, parent) -> None:
        self.pid = os.getpid()
        self.key = f"{self.pid}-{now_ns()}"
        self.spans: list = []
        self.stack: list[int] = []
        self.root_parent = parent
        self.next_id = 0
        self.baseline = program_counters()

    def after_fork(self) -> None:
        """A forked worker keeps the wrappers but none of the parent's
        spans; its top-level spans hang off the span that forked it."""
        self._reset(self.stack[-1] if self.stack else self.root_parent)
        self.submitted = {}

    def new_id(self) -> int:
        self.next_id += 1
        return self.pid * 10_000_000 + self.next_id

    def record(self, name: str, start: int, end: int, span_id: int, parent, args) -> None:
        self.spans.append([name, start, end, span_id, parent, self.pid, self.rid, args])


def _wrap(fn, name: str, info):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _STATE
        parent = state.stack[-1] if state.stack else state.root_parent
        span_id = state.new_id()
        state.stack.append(span_id)
        start = now_ns()
        error = None
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = now_ns()
            state.stack.pop()
            extra = info(args, error, start) if info else None
            state.record(name, start, end, span_id, parent, extra)
            if name == "engine.pool_task" and os.getpid() != state.origin_pid:
                flush()

    return wrapper


def _wrap_submit(fn):
    """``AdvisorService.submit`` is a coroutine: note when each request
    arrived so the batch span can report its queue wait."""

    @functools.wraps(fn)
    async def wrapper(self, request):
        _STATE.submitted[id(request)] = now_ns()
        return await fn(self, request)

    return wrapper


#: Targets of modules not imported yet, by module name.
_PENDING: dict[str, list] = {}


def _apply(module_name: str) -> None:
    """Wrap one loaded module's targets and rebind their aliases."""
    module = sys.modules[module_name]
    replaced = {}
    for _, attribute, name, info in _PENDING.pop(module_name):
        owner, _, leaf = attribute.rpartition(".")
        holder = getattr(module, owner) if owner else module
        original = holder.__dict__[leaf]
        wrapper = _wrap_submit(original) if name is None else _wrap(original, name, info)
        setattr(holder, leaf, wrapper)
        if not owner:
            replaced[id(original)] = wrapper
    if not replaced:
        return
    # Only the package itself re-binds its functions under other names.
    for loaded in [m for n, m in sys.modules.items() if n.startswith("repro")]:
        for key, value in list(vars(loaded).items()):
            if id(value) in replaced:
                setattr(loaded, key, replaced[id(value)])


class _ImportHook(importlib.abc.MetaPathFinder):
    """Wraps a target module's functions as soon as it is imported, so
    installing the tracer imports nothing the workload would not."""

    def find_spec(self, fullname, path, target=None):
        if fullname not in _PENDING:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            _apply(fullname)

        spec.loader.exec_module = exec_and_wrap
        return spec


def install(out_dir: str, rid=0, spawn_ns: int | None = None) -> None:
    """Wrap every target now or when its module is first imported."""
    global _STATE
    if _STATE is not None:
        return
    _STATE = _Tracer(out_dir, rid, spawn_ns)
    for target in TARGETS:
        _PENDING.setdefault(target[0], []).append(target)
    for module_name in [n for n in _PENDING if n in sys.modules]:
        _apply(module_name)
    sys.meta_path.insert(0, _ImportHook())
    os.register_at_fork(after_in_child=lambda: _STATE.after_fork())


def mark_entry(entry_ns: int) -> None:
    """Close the start-up span: process spawn to the first entry-point call."""
    state = _STATE
    if state.spawn_ns is not None:
        state.record("bench.startup", state.spawn_ns, entry_ns, state.new_id(), None, None)


def flush() -> None:
    """Append this process's spans to the trace directory."""
    state = _STATE
    with open(state.out / f"spans-{state.key}.jsonl", "a") as handle:
        for span in state.spans:
            handle.write(json.dumps(span) + "\n")
    state.spans = []
    now = program_counters()
    delta = {key: now[key] - state.baseline[key] for key in now}
    (state.out / f"counters-{state.key}.json").write_text(json.dumps(delta))


# ---------------------------------------------------------------------------
# Reading a trace directory back.
# ---------------------------------------------------------------------------
def load(spans_dir: Path, since_ns: int = 0) -> tuple[list[dict], dict]:
    """Spans starting at or after ``since_ns``, and summed counters."""
    spans = []
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            name, start, end, span_id, parent, pid, rid, args = json.loads(line)
            # A server starts during set-up; its start-up still counts.
            if start >= since_ns or name == "bench.startup":
                spans.append(
                    {"name": name, "start": start, "end": end, "id": span_id,
                     "parent": parent, "pid": pid, "rid": rid, "args": args or {}}
                )
    counters: dict[str, int] = defaultdict(int)
    for path in spans_dir.glob("counters-*.json"):
        for key, value in json.loads(path.read_text()).items():
            counters[key] += value
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        span["self"] = span["dur"]
    for span in spans:
        parent = by_id.get(span["parent"])
        # Spans in another process ran concurrently, not nested.
        if parent is not None and parent["pid"] == span["pid"]:
            parent["self"] -= span["dur"]
    return spans, dict(counters)


#: Cache namespaces reported separately; every other namespace holds
#: experiment design points and is reported as ``points``.
CACHE_NAMESPACES = ("profile.tensor", "profile.entries", "sim.tape", "serve.advice")


def aggregate(spans_dir: Path, since_ns: int, stats: dict | None, workers: int) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced run."""
    spans, counters = load(spans_dir, since_ns)
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def count(*names) -> int:
        return sum(len(named[n]) for n in names)

    def self_s(*names) -> float:
        return sum(s["self"] for n in names for s in named[n]) / 1e9

    def total_s(*names) -> float:
        return sum(s["dur"] for n in names for s in named[n]) / 1e9

    def arg_sum(key, *names) -> int:
        return sum(s["args"].get(key, 0) for n in names for s in named[n])

    def rate(work, seconds) -> float:
        return work / seconds if seconds > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    compress = named["compression.compressed_sizes"]
    blocks = arg_sum("blocks", "compression.compressed_sizes")
    busy = self_s("compression.compressed_sizes")
    m["compression.calls"] = (len(compress), "count")
    m["compression.blocks"] = (blocks, "count")
    m["compression.busy_s"] = (busy, "s")
    m["compression.blocks_per_s"] = (rate(blocks, busy), "1/s")
    # BPC is the only codec whose bulk ``compressed_sizes`` any
    # workload calls, so it is the only per-codec share reported.
    m["compression.bpc.busy_s"] = (
        sum(s["self"] for s in compress if s["args"]["codec"] == "bpc") / 1e9, "s"
    )

    m["workloads.snapshot_runs"] = (counters.get("snapshot_runs", 0), "count")
    m["workloads.busy_s"] = (
        self_s("workloads.generate_snapshot", "workloads.generate_trace", "workloads.layout_state"),
        "s",
    )
    m["core.profile_busy_s"] = (
        self_s("core.profile_tensors_bulk", "core.profile_tensor", "core.entry_state_tensor"),
        "s",
    )
    m["core.evaluate_calls"] = (count("core.evaluate_selections_batch"), "count")
    m["core.evaluate_busy_s"] = (self_s("core.evaluate_selections_batch"), "s")

    events = arg_sum("events", "gpusim.run_exact")
    busy = self_s("gpusim.run_exact")
    m["gpusim.exact_calls"] = (count("gpusim.run_exact"), "count")
    m["gpusim.exact_events"] = (events, "count")
    m["gpusim.exact_busy_s"] = (busy, "s")
    m["gpusim.exact_events_per_s"] = (rate(events, busy), "1/s")
    replays = named["gpusim.replay_tape_many"] + named["gpusim.replay_tape"]
    link_events = sum(s["args"]["events"] * s["args"]["links"] for s in replays)
    busy = self_s("gpusim.replay_tape_many", "gpusim.replay_tape")
    m["gpusim.replay_calls"] = (len(replays), "count")
    m["gpusim.replay_link_events"] = (link_events, "count")
    m["gpusim.replay_busy_s"] = (busy, "s")
    m["gpusim.replay_link_events_per_s"] = (rate(link_events, busy), "1/s")
    m["gpusim.columns_busy_s"] = (self_s("gpusim.simulator_run", "gpusim.replay_links"), "s")
    m["gpusim.tape_recordings"] = (counters.get("tape_recordings", 0), "count")

    m["analysis.metadata_busy_s"] = (self_s("analysis.metadata_row"), "s")
    m["um.busy_s"] = (self_s("um.um_benchmark_curve"), "s")

    m["engine.plan_s"] = (total_s("engine.plan"), "s")
    m["engine.execute_s"] = (total_s("engine.execute_plan"), "s")
    tasks = [s for s in named["engine.pool_task"] if s["args"].get("worker")]
    m["engine.pool_tasks"] = (len(tasks), "count")
    m["engine.pool_task_s"] = (sum(s["dur"] for s in tasks) / 1e9, "s")
    busy_by_execute = defaultdict(int)
    for task in tasks:
        busy_by_execute[task["parent"]] += task["dur"]
    executes = [s for s in named["engine.execute_plan"] if s["id"] in busy_by_execute]
    capacity = workers * sum(s["dur"] for s in executes)
    m["engine.pool_idle_share"] = (
        1 - sum(busy_by_execute[s["id"]] for s in executes) / capacity if capacity else 0.0,
        "ratio",
    )
    gets = named["engine.cache_get"]
    m["engine.cache_gets"] = (len(gets), "count")
    m["engine.cache_get_s"] = (total_s("engine.cache_get"), "s")
    m["engine.cache_get_bytes"] = (arg_sum("bytes", "engine.cache_get"), "bytes")
    for namespace in CACHE_NAMESPACES + ("points",):
        mine = [
            s for s in gets
            if s["args"]["ns"] == namespace
            or (namespace == "points" and s["args"]["ns"] not in CACHE_NAMESPACES)
        ]
        hits = sum(1 for s in mine if s["args"]["hit"])
        m[f"engine.cache_hit_ratio.{namespace}"] = (hits / len(mine) if mine else 0.0, "ratio")
    m["engine.cache_puts"] = (count("engine.cache_put"), "count")
    m["engine.cache_put_s"] = (total_s("engine.cache_put"), "s")
    m["engine.cache_put_bytes"] = (arg_sum("bytes", "engine.cache_put"), "bytes")
    startups = sorted(s["dur"] for s in named["bench.startup"])
    m["engine.startup_s"] = (startups[len(startups) // 2] / 1e9 if startups else 0.0, "s")

    batches = named["serve.batch"]
    size = arg_sum("size", "serve.batch")
    m["serve.batches"] = (len(batches), "count")
    m["serve.batch_size_mean"] = (size / len(batches) if batches else 0.0, "count")
    m["serve.advise_busy_s"] = (self_s("serve.advise_batch"), "s")
    m["serve.queue_wait_ms"] = (arg_sum("wait_ns", "serve.batch") / size / 1e6 if size else 0.0, "ms")
    hot = {"hits": 0, "misses": 0, "evictions": 0}
    rejected = 0
    if stats:
        before, after = stats["before"], stats["after"]
        hot = {k: after["hot_cache"][k] - before["hot_cache"][k] for k in hot}
        rejected = after["service"]["rejected"] - before["service"]["rejected"]
    lookups = hot["hits"] + hot["misses"]
    m["serve.hot_hit_ratio"] = (hot["hits"] / lookups if lookups else 0.0, "ratio")
    m["serve.hot_evictions"] = (hot["evictions"], "count")
    m["serve.rejected"] = (rejected, "count")
    return m


def write_outputs(trace_dir: Path, layers: dict) -> None:
    """``layers.json`` plus a Chrome trace-event file for Perfetto."""
    spans, _ = load(trace_dir / "spans")
    base = min((s["start"] for s in spans), default=0)
    events = [
        {
            "name": s["name"],
            "cat": s["name"].split(".")[0],
            "ph": "X",
            "ts": (s["start"] - base) / 1000,
            "dur": s["dur"] / 1000,
            "pid": s["pid"],
            "tid": s["pid"],
            "args": {**s["args"], "rid": s["rid"], "parent": s["parent"]},
        }
        for s in spans
    ]
    (trace_dir / "trace.json").write_text(json.dumps({"traceEvents": events}))
    by_name: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = by_name[s["name"]]
        row["calls"] += 1
        row["total_s"] += s["dur"] / 1e9
        row["self_s"] += s["self"] / 1e9
    (trace_dir / "layers.json").write_text(
        json.dumps(
            {
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
                "spans": dict(sorted(by_name.items())),
            },
            indent=1,
        )
    )


# ---------------------------------------------------------------------------
# Coverage guard.
# ---------------------------------------------------------------------------
#: Per workload: metrics that must record work, and metrics predicted
#: to stay exactly zero.  A non-zero expectation that reads zero means
#: a wrapper missed an alias; a predicted zero that moves means the
#: workload no longer isolates the layers it was chosen for.
EXPECT = {
    "paper-cold": (
        ("compression.calls", "workloads.snapshot_runs", "core.profile_busy_s",
         "core.evaluate_calls", "gpusim.exact_calls", "gpusim.columns_busy_s",
         "analysis.metadata_busy_s", "um.busy_s", "engine.plan_s", "engine.pool_tasks",
         "engine.cache_puts", "engine.startup_s"),
        ("gpusim.replay_calls", "serve.batches"),
    ),
    "design-iterate": (
        ("core.evaluate_calls", "gpusim.exact_calls", "gpusim.replay_calls",
         "gpusim.columns_busy_s", "engine.pool_tasks", "engine.cache_gets",
         "engine.startup_s"),
        ("compression.calls", "workloads.snapshot_runs", "gpusim.tape_recordings",
         "analysis.metadata_busy_s", "um.busy_s", "serve.batches"),
    ),
    "fig11-fallback": (
        ("gpusim.exact_calls", "gpusim.replay_calls", "gpusim.columns_busy_s",
         "engine.pool_tasks", "engine.cache_gets", "engine.startup_s"),
        ("compression.calls", "workloads.snapshot_runs", "gpusim.tape_recordings",
         "analysis.metadata_busy_s", "um.busy_s", "serve.batches"),
    ),
    "advisor-open": (
        ("serve.batches", "serve.advise_busy_s", "core.evaluate_calls",
         "engine.cache_puts", "engine.startup_s"),
        ("compression.calls", "workloads.snapshot_runs", "gpusim.exact_calls",
         "gpusim.replay_calls", "analysis.metadata_busy_s", "um.busy_s",
         "engine.pool_tasks"),
    ),
}
#: Tracing may slow a round by at most this much.
MAX_OVERHEAD_PCT = 10.0


def coverage_problems(workload: str, layers: dict, least_overhead: float) -> list[str]:
    """Coverage failures of one traced run.  ``least_overhead`` is the
    smallest traced/plain round ratio minus one: the overhead check
    fails only when every pair was slower, not on one noisy pair."""
    nonzero, zero = EXPECT[workload]
    problems = [f"traced {workload}: {n} recorded nothing" for n in nonzero if not layers[n][0]]
    problems += [f"traced {workload}: {n} = {layers[n][0]}, predicted 0" for n in zero if layers[n][0]]
    if 100 * least_overhead > MAX_OVERHEAD_PCT:
        problems.append(
            f"traced {workload}: every traced round over {MAX_OVERHEAD_PCT}% slower "
            f"(least {100 * least_overhead:.1f}%)"
        )
    return problems
