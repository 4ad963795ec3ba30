"""The always-on advisor service: micro-batched admission, one loop.

:class:`AdvisorService` turns the one-shot advisor pipeline into a
long-running server component:

* **micro-batching** — concurrent :meth:`AdvisorService.submit` calls
  land in a bounded deque; a single batcher task collects up to
  ``max_batch`` of them (waiting at most ``max_delay`` after the
  first arrival) and answers the whole batch through ONE
  :func:`repro.serve.advisor.advise_batch` call, so N concurrent
  requests coalesce into at most ``ceil(N / max_batch)`` bulk
  profile/evaluate calls;
* **shared hot cache** — on start the service installs its
  :class:`~repro.engine.store.ArtifactStore` as the process artifact
  store (:func:`repro.core.profiler.set_tensor_cache`), so tensor and
  answer residency live in one bounded, stats-instrumented layer;
* **back-pressure** — a full queue rejects with
  :class:`~repro.serve.protocol.ServiceOverloaded` (429-style, with a
  retry-after hint) instead of buffering unboundedly, and
  :meth:`AdvisorService.aclose` drains everything already admitted
  before the batcher exits (graceful shutdown: admitted requests are
  never dropped).

All waiting goes through the injectable
:class:`~repro.serve.clock.Clock` — this module performs no direct
wall-clock reads, and the tier-1 determinism lint
(``tests/statics/test_determinism.py``) enforces that.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field

from repro.core import controller as controller_mod
from repro.core import profiler as profiler_mod
from repro.engine.store import ArtifactStore
from repro.serve.advisor import advise_batch, advise_one
from repro.serve.clock import Clock, MonotonicClock
from repro.serve.protocol import (
    Advice,
    AdviceRequest,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.workloads.snapshots import SnapshotConfig


@dataclass(frozen=True)
class ServiceConfig:
    """Admission-queue knobs.

    Attributes:
        max_batch: Most requests answered per bulk pipeline call.
        max_delay: Seconds the batcher waits after the first arrival
            for more requests before flushing a partial batch.
        max_pending: Queue bound; submits beyond it are rejected with
            :class:`~repro.serve.protocol.ServiceOverloaded`.
        retry_after: The rejection's retry hint, in seconds.
    """

    max_batch: int = 16
    max_delay: float = 0.002
    max_pending: int = 1024
    retry_after: float = 0.05


@dataclass
class ServiceStats:
    """Lifetime counters of one service instance."""

    submitted: int = 0  # admitted to the queue
    completed: int = 0  # answered (cache hits included)
    rejected: int = 0  # back-pressure rejections
    invalid: int = 0  # failed validation at submit
    failed: int = 0  # raised inside the pipeline
    batches: int = 0  # bulk advise_batch calls
    batched_requests: int = 0  # requests answered through batches
    largest_batch: int = 0

    def as_json(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "invalid": self.invalid,
            "failed": self.failed,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "largest_batch": self.largest_batch,
        }


@dataclass
class _Pending:
    request: AdviceRequest
    future: asyncio.Future = field(repr=False)


class AdvisorService:
    """Asyncio advisor service over the shared columnar pipeline.

    Use as an async context manager, or call :meth:`start` /
    :meth:`aclose` explicitly::

        service = AdvisorService(cache=ResultCache(".advisor-cache"))
        async with service:
            advice = await service.submit(AdviceRequest(benchmark="VGG16"))

    Args:
        cache: Optional on-disk backing for the hot cache.
        hot: A prebuilt :class:`~repro.engine.store.ArtifactStore`
            (overrides ``cache``).
        config: :class:`ServiceConfig` admission knobs.
        snapshot_config: Base profile configuration for
            benchmark-backed requests (defaults to the paper's).
        clock: Injectable time source (tests pass
            :class:`~repro.serve.clock.ManualClock`).
    """

    def __init__(
        self,
        cache=None,
        hot: ArtifactStore | None = None,
        config: ServiceConfig | None = None,
        snapshot_config: SnapshotConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.hot = hot or ArtifactStore(backing=cache)
        self.snapshot_config = snapshot_config or SnapshotConfig()
        self.clock = clock or MonotonicClock()
        self.stats = ServiceStats()
        self._pending: deque[_Pending] = deque()
        self._wake = asyncio.Event()
        self._batcher: asyncio.Task | None = None
        self._closing = False
        self._prev_store = None
        self._base_profile_calls = 0
        self._base_evaluate_calls = 0

    # ------------------------------------------------------------------
    async def start(self) -> "AdvisorService":
        """Install the hot cache and start the batcher task."""
        if self._batcher is not None:
            raise RuntimeError("service already started")
        self._closing = False
        self._prev_store = profiler_mod.set_tensor_cache(self.hot)
        self._base_profile_calls = profiler_mod.bulk_compression_call_count()
        self._base_evaluate_calls = controller_mod.evaluate_bulk_call_count()
        self._batcher = asyncio.ensure_future(self._run())
        return self

    async def aclose(self) -> None:
        """Stop admitting, drain the queue, restore global hooks."""
        if self._batcher is None:
            return
        self._closing = True
        self._wake.set()
        try:
            await self._batcher
        finally:
            self._batcher = None
            profiler_mod.set_tensor_cache(self._prev_store)

    async def __aenter__(self) -> "AdvisorService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    async def submit(self, request: AdviceRequest) -> Advice:
        """Admit one request and await its advice.

        Raises :class:`~repro.serve.protocol.InvalidRequest` for
        malformed requests (immediately, never queued),
        :class:`~repro.serve.protocol.ServiceOverloaded` when the
        queue is full, and
        :class:`~repro.serve.protocol.ServiceClosed` after
        :meth:`aclose` began.
        """
        if self._closing or self._batcher is None:
            raise ServiceClosed("advisor service is not accepting requests")
        try:
            request.validate()
        except Exception:
            self.stats.invalid += 1
            raise
        if len(self._pending) >= self.config.max_pending:
            self.stats.rejected += 1
            raise ServiceOverloaded(self.config.retry_after)
        self.stats.submitted += 1
        future = asyncio.get_running_loop().create_future()
        self._pending.append(_Pending(request, future))
        self._wake.set()
        return await future

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        """The batcher: collect a batch, answer it, repeat until drained."""
        while True:
            if not self._pending:
                if self._closing:
                    return
                self._wake.clear()
                if self._pending or self._closing:
                    continue  # raced with a submit/close after clear
                await self._wake.wait()
                continue
            batch = await self._collect_batch()
            if batch:
                self._execute(batch)

    async def _collect_batch(self) -> list[_Pending]:
        """Wait out the batching window, then pop up to ``max_batch``.

        The window opens at the first pending arrival and closes after
        ``max_delay`` or as soon as ``max_batch`` requests are
        waiting; a draining service flushes immediately.
        """
        deadline = self.clock.now() + self.config.max_delay
        while len(self._pending) < self.config.max_batch and not self._closing:
            remaining = deadline - self.clock.now()
            if remaining <= 0:
                break
            self._wake.clear()
            if len(self._pending) >= self.config.max_batch or self._closing:
                break
            fired = await self.clock.wait_event(self._wake, remaining)
            if not fired:
                break
        batch = [
            self._pending.popleft()
            for _ in range(min(self.config.max_batch, len(self._pending)))
        ]
        return batch

    def _execute(self, batch: list[_Pending]) -> None:
        """Answer one batch through a single bulk pipeline call."""
        self.stats.batches += 1
        self.stats.batched_requests += len(batch)
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        try:
            advices = advise_batch(
                [item.request for item in batch],
                cache=self.hot,
                config=self.snapshot_config,
            )
        except Exception:
            # One request poisoned the batch (e.g. its snapshot
            # generation failed); retry individually so its neighbours
            # still get answers and it gets its own error.
            for item in batch:
                try:
                    advice = advise_one(
                        item.request, cache=self.hot, config=self.snapshot_config
                    )
                except Exception as err:
                    self.stats.failed += 1
                    if not item.future.done():
                        item.future.set_exception(err)
                else:
                    self.stats.completed += 1
                    if not item.future.done():
                        item.future.set_result(advice)
            return
        for item, advice in zip(batch, advices):
            self.stats.completed += 1
            if not item.future.done():
                item.future.set_result(advice)

    # ------------------------------------------------------------------
    def bulk_profile_calls(self) -> int:
        """Bulk ``compressed_sizes`` calls issued since :meth:`start`."""
        return (
            profiler_mod.bulk_compression_call_count()
            - self._base_profile_calls
        )

    def bulk_evaluate_calls(self) -> int:
        """Bulk selection evaluations issued since :meth:`start`."""
        return (
            controller_mod.evaluate_bulk_call_count()
            - self._base_evaluate_calls
        )

    def stats_json(self) -> dict:
        """Service, coalescing and hot-cache counters in one report."""
        return {
            "service": self.stats.as_json(),
            "bulk_calls": {
                "profile": self.bulk_profile_calls(),
                "evaluate": self.bulk_evaluate_calls(),
            },
            "hot_cache": {
                "entries": self.hot.entries,
                "resident_bytes": self.hot.resident_bytes,
                **self.hot.stats.as_json(),
            },
        }
