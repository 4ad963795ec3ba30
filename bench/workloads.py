"""Build steps, child processes and the four benchmark workloads.

Build (once per checkout, cached under ``.bench_build/`` by a digest of
``src/``): the compiled event core, built with the repository's own
``setup.py``, and an *artifact store* — a result cache populated by one
cold sweep of Fig. 7, Fig. 9, the relaxed Fig. 11 and the advisor's
one-shot experiment.  The store is seed-independent.

Each workload has the same shape: ``setup()`` prepares a private copy
of what its rounds read and is timed; ``round(i)`` does one unit of
closed-loop work in fresh interpreters and returns a :class:`Round`;
``teardown()`` stops what ``setup()`` started.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loadgen
from child import ANCHOR_LINK, ANCHOR_THRESHOLD, ROOT, now_ns

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build"
GOLDEN = json.loads((BENCH / "golden.json").read_text())

#: Pool size of every sweep: the benchmark is sized for two cores.
WORKERS = 2
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

#: The artifact store: every tensor, entry state and tape the warm
#: workloads read, built by one cold planned sweep.
STORE_REQUESTS = [
    ["compression.fig7", {}],
    ["compression.fig9", {}],
    ["perf.fig11", {"engine": "relaxed"}],
    ["serve.advice", {}],
]

#: fig11-fallback's benchmarks: four HPC and four DL.
FALLBACK_BENCHMARKS = (
    "354.cg", "356.sp", "370.bt", "FF_Lulesh",
    "AlexNet", "SqueezeNet", "VGG16", "ResNet50",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed build)."""


@dataclass
class Round:
    """One unit of measured work and how its outputs checked out."""

    seconds: float
    attempted: int
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    rss_mb: float = 0.0
    detail: dict = field(default_factory=dict)
    #: Seconds of each request, where a round is a burst of requests.
    latencies: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------
class Child:
    """One ``child.py`` job in its own session (so its pool dies with it)."""

    def __init__(self, job: dict, workdir: Path, python_core: bool = False,
                 stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        tag = f"{job['job']}-{now_ns()}"
        self.job_file = workdir / f"{tag}.json"
        self.err_file = workdir / f"{tag}.err"
        self.result_file = workdir / f"{tag}.out"
        env = dict(os.environ)
        env.pop("REPRO_NO_EXT", None)
        if python_core:
            env["REPRO_NO_EXT"] = "1"
        self.spawn_ns = now_ns()
        job = {**job, "result": str(self.result_file), "spawn_ns": self.spawn_ns}
        self.job_file.write_text(json.dumps(job))
        with open(self.err_file, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(self.job_file)],
                cwd=ROOT, env=env, stdin=stdin, stdout=stdout, stderr=err,
                start_new_session=True,
            )
        self.end_ns: int | None = None
        self.rss_mb = 0.0

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        """Reap the child; returns its result (raises if it failed)."""
        pidfd = os.pidfd_open(self.proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not ready:
            self.kill()
            raise BenchError(f"{self.job_file.name} timed out after {timeout:.0f}s")
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.end_ns = now_ns()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        if self.proc.returncode != 0:
            tail = self.err_file.read_text(errors="replace")[-2000:]
            raise BenchError(
                f"{self.job_file.name} exited {self.proc.returncode}:\n{tail}"
            )
        return json.loads(self.result_file.read_text())

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.spawn_ns) / 1e9

    def interrupt(self) -> None:
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signal.SIGINT)

    def kill(self) -> None:
        if self.proc.returncode is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.wait4(self.proc.pid, 0)
            self.proc.returncode = -signal.SIGKILL


def run_child(job: dict, workdir: Path, python_core: bool = False) -> tuple[dict, Child]:
    child = Child(job, workdir, python_core)
    return child.wait(), child


class Calibrator:
    """The machine-speed probe: one long-lived ``child.py calibrator``
    per pool worker (rounds keep two cores busy too).  They wait on a
    pipe between probes, so they cost the workload nothing, and no
    probe pays interpreter start-up."""

    #: Timed runs per process and probe.
    REPS = 5

    def __init__(self, workdir: Path) -> None:
        self.copies = [
            Child({"job": "calibrator", "reps": self.REPS}, workdir,
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for _ in range(WORKERS)
        ]

    def probe(self) -> float:
        """Median seconds of one calibration run, all copies at once."""
        for child in self.copies:
            child.proc.stdin.write(b"\n")
            child.proc.stdin.flush()
        times = []
        for child in self.copies:
            line = child.proc.stdout.readline()
            if not line:
                raise BenchError(f"{child.job_file.name} stopped")
            times += json.loads(line)
        return statistics.median(times)

    def close(self) -> None:
        for child in self.copies:
            child.proc.stdin.close()
        for child in self.copies:
            try:
                child.wait(timeout=30)
            finally:
                child.kill()
                child.proc.stdout.close()


# ---------------------------------------------------------------------------
# Build: compiled event core + artifact store, cached per source digest.
# ---------------------------------------------------------------------------
def source_digest() -> str:
    """Digest of everything the build and the store depend on."""
    src = ROOT / "src" / "repro"
    if not src.is_dir() or not (ROOT / "setup.py").is_file():
        raise BenchError(f"no repro sources under {ROOT}; run from a full checkout")
    digest = hashlib.sha256(sys.version.encode())
    digest.update(np.__version__.encode())
    paths = [ROOT / "setup.py", *sorted(src.rglob("*.py")), *sorted(src.rglob("*.c"))]
    for path in paths:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _publish(tmp: Path, target: Path) -> None:
    """Move a finished build into place (a concurrent twin may win)."""
    try:
        os.rename(tmp, target)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        if not target.is_dir():
            raise


def build_ext(digest: str) -> Path:
    """The compiled event core; never silently absent."""
    target = WORK / f"ext-{digest}"
    if not target.is_dir():
        tmp = WORK / f"tmp-ext-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext",
             "--build-lib", str(tmp), "--build-temp", str(tmp / "obj")],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0 or not list(tmp.glob("repro/gpusim/_event_core_ext*")):
            shutil.rmtree(tmp, ignore_errors=True)
            raise BenchError(f"event-core build failed:\n{proc.stderr[-2000:]}")
        _publish(tmp, target)
    return next(target.glob("repro/gpusim/_event_core_ext*"))


def build_store(digest: str, ext: Path) -> tuple[Path, float]:
    """The artifact store; returns ``(path, build seconds or 0.0)``."""
    target = WORK / f"store-{digest}"
    if target.is_dir():
        return target, 0.0
    tmp = WORK / f"tmp-store-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    result, child = run_child(
        {"job": "sweep", "ext": str(ext), "requests": STORE_REQUESTS,
         "workers": WORKERS, "cache_dir": str(tmp)},
        WORK / "logs",
    )
    if result["event_core"] != "compiled":
        raise BenchError("store build did not run on the compiled event core")
    _publish(tmp, target)
    return target, child.seconds


# ---------------------------------------------------------------------------
# Correctness helpers.
# ---------------------------------------------------------------------------
def anchor_mismatches(result: dict, names) -> list[str]:
    """Anchor rows of a round that differ from the whole-paper goldens."""
    bad = []
    for name in names:
        golden = GOLDEN["anchors"][name]
        for benchmark, digest in result["anchors"][name].items():
            if golden[benchmark] != digest:
                bad.append(f"{name}/{benchmark}")
    return bad


def zero_work_mismatches(result: dict) -> list[str]:
    """Warm rounds must not profile, generate snapshots or record tapes."""
    execution = result["execution"]
    return [
        f"{key}={execution[key]}"
        for key in ("snapshot_generations", "bulk_compression_calls", "tape_recordings")
        if execution[key]
    ]


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------
class Workload:
    """Common plumbing: per-run scratch space, the store, tracing."""

    python_core = False
    #: Fewest rounds an untraced run measures, however long they take.
    min_rounds = 2

    def __init__(self, seed: int, ext: Path, store: Path, run_dir: Path,
                 trace_dir: Path | None = None) -> None:
        self.seed = seed
        self.ext = None if self.python_core else str(ext)
        self.store = store
        self.run_dir = run_dir
        self.trace_dir = trace_dir
        self._setups = 0
        self.workdir = run_dir

    def job(self, **job) -> dict:
        job["ext"] = self.ext
        if self.trace_dir is not None:
            job["trace_dir"] = str(self.trace_dir)
        return job

    def fresh_dir(self, label: str) -> Path:
        path = self.run_dir / f"{label}-{now_ns()}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """Stage a private store copy and check the event core in a
        fresh interpreter (the core every round must run on)."""
        self._setups += 1
        self.workdir = self.fresh_dir(f"setup{self._setups}")
        self.cache_dir = self.workdir / "cache"
        self.stage_cache(self.cache_dir)
        core, _ = run_child(
            {"job": "event-core", "ext": self.ext}, self.workdir, self.python_core
        )
        wanted = "python" if self.python_core else "compiled"
        if core["event_core"]["event_core"] != wanted:
            raise BenchError(
                f"expected the {wanted} event core, got {core['event_core']}"
            )

    def stage_cache(self, path: Path) -> None:
        # Hard links: cache entries are replaced atomically, never
        # written in place, so the rounds cannot alter the shared store.
        shutil.copytree(self.store, path, copy_function=os.link)

    def sweep(self, requests, rid: int, cache_dir: Path) -> tuple[dict, Child]:
        return run_child(
            self.job(job="sweep", requests=requests, workers=WORKERS,
                     cache_dir=str(cache_dir), rid=rid),
            self.workdir, self.python_core,
        )

    def teardown(self) -> None:
        pass


class PaperCold(Workload):
    """``repro sweep`` of all 11 experiments into an empty cache."""

    # One sweep per run: a sweep takes 14 s on the reference machine
    # and about twice that in a slow spell, longer than a whole run's
    # measuring time already.
    min_rounds = 1

    def stage_cache(self, path: Path) -> None:
        path.mkdir()

    def round(self, i: int) -> Round:
        names = list(GOLDEN["digests"])
        cache_dir = self.cache_dir if i == 0 else self.fresh_dir(f"cold{i}")
        result, child = self.sweep([[name, {}] for name in names], i, cache_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        bad = [
            name for name in names
            if result["digests"][name] != GOLDEN["digests"][name]
        ]
        return Round(
            child.seconds, len(names), len(bad), bad, child.rss_mb,
            {"accuracy": result["accuracy"], "entry_s": (result["entry_ns"] - child.spawn_ns) / 1e9},
        )


def seeded_values(rng, count: int, low: float, high: float, step: float, anchor: float):
    """``count`` distinct sorted draws on a ``step`` grid, never ``anchor``."""
    values: set[float] = set()
    while len(values) < count:
        value = round(round(float(rng.uniform(low, high)) / step) * step, 6)
        if value != anchor:
            values.add(value)
    return tuple(sorted(values))


def design_questions(seed: int, i: int) -> tuple[tuple, tuple]:
    """Round ``i``'s seeded thresholds and links (anchors appended)."""
    rng = np.random.default_rng([seed, 10, i])
    thresholds = seeded_values(rng, 4, 0.05, 0.5, 0.001, ANCHOR_THRESHOLD)
    links = seeded_values(rng, 6, 40.0, 250.0, 0.5, ANCHOR_LINK)
    return (*thresholds, ANCHOR_THRESHOLD), (*links, ANCHOR_LINK)


class DesignIterate(Workload):
    """New Fig. 9 / advisor / Fig. 11 questions against a warm store."""

    def round(self, i: int) -> Round:
        thresholds, links = design_questions(self.seed, i)
        requests = [
            ["compression.fig9", {"thresholds": thresholds}],
            ["serve.advice", {"thresholds": thresholds}],
            ["perf.fig11", {"engine": "relaxed", "link_sweep": links}],
        ]
        result, child = self.sweep(requests, i, self.cache_dir)
        bad = anchor_mismatches(result, [name for name, _ in requests])
        bad += zero_work_mismatches(result)
        return Round(
            child.seconds, len(requests), min(len(bad), len(requests)), bad,
            child.rss_mb, {"entry_s": (result["entry_ns"] - child.spawn_ns) / 1e9},
        )


class Fig11Fallback(Workload):
    """The relaxed Fig. 11 sweep on the pure-Python event core."""

    python_core = True

    def round(self, i: int) -> Round:
        rng = np.random.default_rng([self.seed, 20, i])
        (link,) = seeded_values(rng, 1, 40.0, 250.0, 0.5, ANCHOR_LINK)
        requests = [[
            "perf.fig11",
            {"engine": "relaxed", "benchmarks": FALLBACK_BENCHMARKS,
             "link_sweep": (ANCHOR_LINK, link)},
        ]]
        result, child = self.sweep(requests, i, self.cache_dir)
        if result["event_core"] != "python":
            raise BenchError("fig11-fallback round ran on the compiled core")
        bad = anchor_mismatches(result, ["perf.fig11"]) + zero_work_mismatches(result)
        return Round(
            child.seconds, len(FALLBACK_BENCHMARKS), min(len(bad), len(FALLBACK_BENCHMARKS)),
            bad, child.rss_mb, {"link": link},
        )


class AdvisorOpen(Workload):
    """``repro serve`` under a seeded request mix over two connections.

    Rounds are closed-loop bursts (:data:`BURST` requests,
    :data:`WINDOW` outstanding); :meth:`open_phase` then sends
    :data:`OPEN_REQUESTS` on a Poisson schedule at :data:`OPEN_LOAD`
    times the bursts' throughput.  A rate tied to the measured
    throughput keeps the server equally busy however fast the machine
    runs; a fixed rate would push a slow spell up the queueing curve.
    A set-up copies the store, starts the server and warms the working
    set; stopping the previous server is :meth:`teardown`, outside it.
    """

    #: Requests per burst: enough for a p99 with ten beyond it.
    BURST = 1000
    WINDOW = 64
    OPEN_LOAD = 0.3
    #: Enough for a p99 with ten requests beyond it.
    OPEN_REQUESTS = 1200
    LIMIT_MS = 50.0
    #: Open-loop requests unanswered this long after the last send fail.
    TIMEOUT_S = 10.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.core.profiler import profile_tensors_bulk
        from repro.workloads.catalog import ALL_BENCHMARKS

        with self._store_tensors():
            tensors = profile_tensors_bulk([b.name for b in ALL_BENCHMARKS])
        profiles = {
            name: {"names": t.names, "fractions": t.fractions,
                   "counts": t.counts, "zero_fit": t.zero_fit}
            for name, t in tensors.items()
        }
        self.traffic = loadgen.Traffic(self.seed, profiles)
        self.expected = self._one_shot(self.traffic.working_set())
        self.loop = asyncio.new_event_loop()
        self.server: Child | None = None
        self.links: list = []
        self.one_off_answers: dict[tuple, str] = {}
        self.stats_before: dict = {}

    @contextlib.contextmanager
    def _store_tensors(self):
        """Resolve profile tensors through the store, which holds the
        catalog's, so none is rebuilt in this process."""
        from repro.core.profiler import set_tensor_cache
        from repro.engine.cache import ResultCache

        previous = set_tensor_cache(ResultCache(self.store))
        try:
            yield
        finally:
            set_tensor_cache(previous)

    def _one_shot(self, keys) -> dict:
        """Expected digests: the advisor pipeline called in-process."""
        from repro.serve.advisor import advise_batch
        from repro.serve.protocol import AdviceRequest

        with self._store_tensors():
            advices = advise_batch(
                [AdviceRequest.from_json(self.traffic.request_json(k)) for k in keys]
            )
        return {key: advice.digest for key, advice in zip(keys, advices)}

    def setup(self) -> None:
        self._setups += 1
        self.workdir = self.fresh_dir(f"setup{self._setups}")
        self.stage_cache(self.workdir / "cache")
        self.server = Child(
            self.job(job="serve", rid="serve",
                     argv=["--cache-dir", str(self.workdir / "cache"), "--port", "0"]),
            self.workdir, stdout=subprocess.PIPE,
        )
        host, port = self._listening()
        self.links = self.loop.run_until_complete(self._connect(host, port))
        keys = self.traffic.working_set()
        results = self._closed(keys)
        bad = self._check(keys, results)
        if bad:
            raise BenchError(f"advisor warm-up answers differ: {bad[:4]}")
        self.stats_before = self.loop.run_until_complete(self.links[0].stats())

    def _listening(self) -> tuple[str, int]:
        stream = self.server.proc.stdout
        ready, _, _ = select.select([stream], [], [], 60)
        line = stream.readline().decode() if ready else ""
        if "listening on" not in line:
            self.server.kill()
            raise BenchError(f"advisor did not start: {line!r}")
        host, port = line.split("listening on ")[1].split()[0].rsplit(":", 1)
        return host, int(port)

    async def _connect(self, host: str, port: int) -> list:
        return [await loadgen.Link.open(host, port) for _ in range(2)]

    def _closed(self, keys) -> list:
        bodies = [self.traffic.body(key) for key in keys]
        return self.loop.run_until_complete(
            loadgen.closed_loop(self.links, bodies, self.WINDOW)
        )

    def _check(self, keys, answers) -> list[str]:
        """Failed or wrong answers; samples one-offs for a later check."""
        bad = []
        for key, (ok, digest, *_) in zip(keys, answers):
            if not ok:
                bad.append(f"{key} failed")
            elif key[0] == "o":
                if key[1] % 10 == 0:
                    self.one_off_answers[key] = digest
            elif digest != self.expected[key]:
                bad.append(f"{key} wrong")
        return bad

    def round(self, i: int) -> Round:
        keys = self.traffic.draw(self.BURST)
        bodies = [self.traffic.body(key) for key in keys]
        started = now_ns()
        answers = self.loop.run_until_complete(
            loadgen.closed_loop(self.links, bodies, self.WINDOW)
        )
        seconds = (now_ns() - started) / 1e9
        bad = self._check(keys, answers)
        # A failed request counts as the open-loop timeout: it misses
        # any latency limit.
        latencies = [took if ok else self.TIMEOUT_S for ok, _, took in answers]
        return Round(
            seconds, len(keys), len(bad), [b for b in bad if "wrong" in b],
            latencies=latencies,
        )

    def open_phase(self, bursts: list[Round]) -> tuple[dict, Round]:
        """:data:`OPEN_REQUESTS` requests at :data:`OPEN_LOAD` times the
        throughput of this run's closed-loop ``bursts``."""
        rate = self.OPEN_LOAD * self.BURST / statistics.median(b.seconds for b in bursts)
        keys = self.traffic.draw(self.OPEN_REQUESTS)
        bodies = [self.traffic.body(key) for key in keys]
        records = self.loop.run_until_complete(
            loadgen.open_loop(self.links, bodies, rate, self.seed, self.TIMEOUT_S)
        )
        summary = loadgen.summarize_open(records, self.LIMIT_MS, 1e3 * self.TIMEOUT_S)
        summary["rate"] = rate
        bad = self._check(keys, [(r[3], r[4]) for r in records])
        return summary, Round(0.0, len(keys), len(bad), [b for b in bad if "wrong" in b])

    def finish(self) -> tuple[dict, list[str]]:
        """Server-side counters of the measured phase, and the one-off
        sample checked against one-shot answers."""
        after = self.loop.run_until_complete(self.links[0].stats())
        expected = self._one_shot(list(self.one_off_answers))
        wrong = [
            f"{key} wrong" for key, digest in self.one_off_answers.items()
            if expected[key] != digest
        ]
        return {"before": self.stats_before, "after": after}, wrong

    def teardown(self) -> None:
        for link in self.links:
            self.loop.run_until_complete(link.aclose())
        self.links = []
        if self.server is not None:
            self.server.interrupt()
            try:
                self.server.wait(timeout=30)
            finally:
                self.server.kill()
                self.server.proc.stdout.close()
            self.rss_mb = self.server.rss_mb
            self.server = None


WORKLOADS = {
    "paper-cold": PaperCold,
    "design-iterate": DesignIterate,
    "fig11-fallback": Fig11Fallback,
    "advisor-open": AdvisorOpen,
}
