"""Advisor-service concurrency suite.

Pins the ISSUE's serving guarantees, all without wall-clock sleeps
(the batching window runs on :class:`repro.serve.clock.ManualClock` virtual
time):

* the batching window holds requests until ``max_delay`` elapses or
  ``max_batch`` requests are waiting, then flushes — deterministic
  under a frozen clock;
* N concurrent requests coalesce into at most ``ceil(N / max_batch)``
  bulk profile/evaluate calls (counter-pinned);
* a full admission queue rejects with
  :class:`~repro.serve.protocol.ServiceOverloaded` (retry-after hint) while
  admitted requests still complete, and shutdown drains everything
  already admitted;
* concurrent clients over TCP get answers digest-identical to
  one-shot :func:`repro.serve.advisor.advise_one` AND to ``repro run
  serve.advice`` — the service is a serving skin, never a second
  math path;
* the service's :class:`~repro.engine.store.ArtifactStore` is
  installed as the process store while it runs and restored after
  (the store's own policy is pinned in ``tests/test_store.py``).
"""

import asyncio
import math

import numpy as np
import pytest

from repro.core import controller as controller_mod
from repro.core import profiler as profiler_mod
from repro.core.profile_tensor import ProfileTensor
from repro.engine import ExperimentRunner, result_digest
from repro.engine import cache as cache_mod
from repro.engine import store as store_mod
from repro.engine.store import ArtifactStore, process_store
from repro.serve.clock import ManualClock
from repro.serve.protocol import (
    DEFAULT_THRESHOLDS,
    AdviceRequest,
    InvalidRequest,
    ServiceClosed,
    ServiceOverloaded,
    build_histogram,
)
from repro.serve.server import AdvisorClient, AdvisorServer
from repro.serve.service import AdvisorService, ServiceConfig
from repro.serve.advisor import advise_batch, advise_one
from repro.workloads.snapshots import SnapshotConfig

TINY = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)


def _histogram(seed: int = 0, allocations: int = 3, snapshots: int = 4):
    """A random-but-valid client-side profile."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 40, size=(allocations, snapshots, 4))
    zero_fit = rng.integers(0, counts[:, :, 0] + 1)
    fractions = rng.uniform(0.05, 1.0, size=allocations)
    names = tuple(f"alloc{i}" for i in range(allocations))
    return build_histogram(f"client-{seed}", names, fractions, counts, zero_fit)


def _histogram_request(seed: int = 0, **overrides) -> AdviceRequest:
    return AdviceRequest(histogram=_histogram(seed), **overrides)


async def _drain_loop(rounds: int = 5) -> None:
    """Let every ready task run without moving virtual time."""
    for _ in range(rounds):
        await asyncio.sleep(0)


# ---------------------------------------------------------------------------
class TestBatchingWindow:
    """Deterministic fake-clock batching-window behaviour."""

    def test_window_holds_until_deadline_then_flushes(self):
        async def scenario():
            clock = ManualClock()
            service = AdvisorService(
                config=ServiceConfig(max_batch=8, max_delay=1.0),
                clock=clock,
            )
            async with service:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(_histogram_request(seed))
                    )
                    for seed in range(3)
                ]
                await _drain_loop()
                # The window is open: nothing flushed, nothing answered.
                assert not any(task.done() for task in tasks)
                assert service.stats.batches == 0
                await clock.advance(0.5)
                assert not any(task.done() for task in tasks)
                await clock.advance(0.5)  # deadline reached
                advices = await asyncio.gather(*tasks)
            assert service.stats.batches == 1
            assert service.stats.largest_batch == 3
            for seed, advice in enumerate(advices):
                assert advice.digest == advise_one(_histogram_request(seed)).digest

        asyncio.run(scenario())

    def test_full_batch_flushes_without_time_passing(self):
        async def scenario():
            clock = ManualClock()
            service = AdvisorService(
                config=ServiceConfig(max_batch=3, max_delay=60.0),
                clock=clock,
            )
            async with service:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(_histogram_request(seed))
                    )
                    for seed in range(3)
                ]
                await _drain_loop(10)
                # max_batch arrivals flush immediately, frozen clock or not.
                assert all(task.done() for task in tasks)
                await asyncio.gather(*tasks)
            assert service.stats.batches == 1
            assert service.stats.largest_batch == 3

        asyncio.run(scenario())

    def test_results_independent_of_batch_composition(self):
        """The same request answers identically alone and batched."""

        async def scenario(max_batch):
            service = AdvisorService(
                config=ServiceConfig(max_batch=max_batch, max_delay=30.0),
                clock=ManualClock(),
            )
            async with service:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(_histogram_request(seed))
                    )
                    for seed in range(4)
                ]
                await _drain_loop(10)
                await service.aclose()  # drain flushes leftovers
                return [advice.digest for advice in await asyncio.gather(*tasks)]

        solo = asyncio.run(scenario(1))
        batched = asyncio.run(scenario(4))
        assert solo == batched


# ---------------------------------------------------------------------------
class TestCoalescing:
    """N concurrent requests -> at most ceil(N / max_batch) bulk calls."""

    def test_one_burst_one_bulk_call(self):
        async def scenario():
            service = AdvisorService(
                config=ServiceConfig(max_batch=16, max_delay=30.0),
                snapshot_config=TINY,
                clock=ManualClock(),
            )
            async with service:
                requests = [
                    AdviceRequest(
                        benchmark="VGG16", thresholds=((seed + 1) / 20,)
                    )
                    for seed in range(8)
                ]
                tasks = [
                    asyncio.ensure_future(service.submit(request))
                    for request in requests
                ]
                await _drain_loop(10)
                await service.aclose()
                await asyncio.gather(*tasks)
            assert service.stats.batches == 1
            assert service.bulk_profile_calls() == 1
            assert service.bulk_evaluate_calls() == 1

        asyncio.run(scenario())

    def test_many_batches_stay_under_ceiling(self):
        async def scenario():
            service = AdvisorService(
                config=ServiceConfig(max_batch=3, max_delay=30.0),
                snapshot_config=TINY,
                clock=ManualClock(),
            )
            requests = [
                AdviceRequest(benchmark="VGG16", thresholds=((seed + 1) / 20,))
                for seed in range(9)
            ]
            async with service:
                tasks = [
                    asyncio.ensure_future(service.submit(request))
                    for request in requests
                ]
                await _drain_loop(10)
                await service.aclose()
                await asyncio.gather(*tasks)
            ceiling = math.ceil(len(requests) / service.config.max_batch)
            assert service.stats.batches == ceiling
            assert service.bulk_evaluate_calls() == ceiling
            # The tensor is hot after batch one; later batches reuse it.
            assert service.bulk_profile_calls() == 1

        asyncio.run(scenario())

    def test_repeat_requests_answer_from_the_hot_cache(self):
        async def scenario():
            service = AdvisorService(
                config=ServiceConfig(max_batch=1, max_delay=30.0),
                snapshot_config=TINY,
                clock=ManualClock(),
            )
            request = AdviceRequest(benchmark="VGG16")
            async with service:
                first = await service.submit(request)
                second = await service.submit(request)
            assert first.digest == second.digest
            # The repeat was a pure answer-cache hit: no new bulk work.
            assert service.bulk_profile_calls() == 1
            assert service.bulk_evaluate_calls() == 1
            per_ns = service.hot.stats.as_json()["per_namespace"]
            assert per_ns["serve.advice"]["hits"] >= 1

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
class TestBackPressure:
    def test_overload_rejects_with_retry_after(self):
        async def scenario():
            service = AdvisorService(
                config=ServiceConfig(
                    max_batch=8,
                    max_delay=1.0,
                    max_pending=2,
                    retry_after=0.25,
                ),
                clock=ManualClock(),
            )
            async with service:
                admitted = [
                    asyncio.ensure_future(
                        service.submit(_histogram_request(seed))
                    )
                    for seed in range(2)
                ]
                await _drain_loop()
                with pytest.raises(ServiceOverloaded) as excinfo:
                    await service.submit(_histogram_request(9))
                assert excinfo.value.retry_after == 0.25
                # Already-admitted requests still complete.
                await service.clock.advance(1.0)
                await asyncio.gather(*admitted)
            assert service.stats.rejected == 1
            assert service.stats.completed == 2

        asyncio.run(scenario())

    def test_invalid_request_never_reaches_the_queue(self):
        async def scenario():
            service = AdvisorService(clock=ManualClock())
            async with service:
                with pytest.raises(InvalidRequest) as excinfo:
                    await service.submit(AdviceRequest())
                assert excinfo.value.code == "missing-profile"
                with pytest.raises(InvalidRequest) as excinfo:
                    await service.submit(
                        _histogram_request(1, codec="gzip")
                    )
                assert excinfo.value.code == "unknown-codec"
            assert service.stats.invalid == 2
            assert service.stats.submitted == 0

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
class TestShutdown:
    def test_close_drains_admitted_requests(self):
        async def scenario():
            service = AdvisorService(
                config=ServiceConfig(max_batch=8, max_delay=600.0),
                clock=ManualClock(),
            )
            async with service:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(_histogram_request(seed))
                    )
                    for seed in range(5)
                ]
                await _drain_loop()
                assert not any(task.done() for task in tasks)
                await service.aclose()  # no clock advance: drain flushes
                advices = await asyncio.gather(*tasks)
            assert len(advices) == 5
            assert service.stats.completed == 5
            with pytest.raises(ServiceClosed):
                await service.submit(_histogram_request(0))

        asyncio.run(scenario())

    def test_submit_before_start_raises(self):
        async def scenario():
            with pytest.raises(ServiceClosed):
                await AdvisorService().submit(_histogram_request(0))

        asyncio.run(scenario())

    def test_global_hooks_restored_after_close(self):
        async def scenario():
            marker = ArtifactStore()
            before_store = profiler_mod.set_tensor_cache(marker)
            try:
                service = AdvisorService(clock=ManualClock())
                async with service:
                    assert process_store() is service.hot
                assert process_store() is marker
            finally:
                profiler_mod.set_tensor_cache(before_store)

        asyncio.run(scenario())

    def test_poisoned_batch_falls_back_to_per_request_answers(
        self, monkeypatch
    ):
        from repro.serve import service as service_mod

        def boom(*args, **kwargs):
            raise RuntimeError("batch poisoned")

        monkeypatch.setattr(service_mod, "advise_batch", boom)

        async def scenario():
            service = AdvisorService(
                config=ServiceConfig(max_batch=4, max_delay=30.0),
                clock=ManualClock(),
            )
            async with service:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(_histogram_request(seed))
                    )
                    for seed in range(2)
                ]
                await _drain_loop()
                await service.aclose()
                advices = await asyncio.gather(*tasks)
            assert service.stats.completed == 2
            assert service.stats.failed == 0
            for seed, advice in enumerate(advices):
                assert advice.digest == advise_one(_histogram_request(seed)).digest

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
class TestDigestParity:
    """Service answers == one-shot answers == engine-run answers."""

    @pytest.mark.parametrize(
        "thresholds",
        [DEFAULT_THRESHOLDS, DEFAULT_THRESHOLDS[:3], DEFAULT_THRESHOLDS[:2]],
        ids=["all", "first3", "first2"],
    )
    @pytest.mark.parametrize("name", ["VGG16", "356.sp"])
    def test_concurrent_tcp_clients_match_one_shot_and_engine_run(
        self, name, thresholds
    ):
        request = AdviceRequest(benchmark=name, thresholds=thresholds)

        async def scenario():
            service = AdvisorService(
                config=ServiceConfig(max_batch=8, max_delay=0.01),
                snapshot_config=TINY,
            )
            async with service:
                async with AdvisorServer(service) as server:
                    clients = [
                        await AdvisorClient.connect(server.host, server.port)
                        for _ in range(2)
                    ]
                    try:
                        advices = await asyncio.gather(
                            *(
                                client.advise(request)
                                for client in clients
                                for _ in range(3)
                            )
                        )
                        stats = await clients[0].stats()
                    finally:
                        for client in clients:
                            await client.aclose()
            return advices, stats

        advices, stats = asyncio.run(scenario())
        digests = {advice.digest for advice in advices}
        assert len(digests) == 1

        one_shot = advise_one(request, config=TINY)
        assert digests == {one_shot.digest}

        value, _ = ExperimentRunner(cache=None).run_report(
            "serve.advice",
            {
                "benchmarks": (name,),
                "thresholds": thresholds,
                "config": TINY,
            },
        )
        assert result_digest(value[name]) == one_shot.digest
        assert stats["service"]["completed"] == 6
        assert stats["service"]["rejected"] == 0

    def test_tcp_errors_are_typed_not_connection_drops(self):
        async def scenario():
            service = AdvisorService(
                config=ServiceConfig(max_batch=4, max_delay=0.001)
            )
            async with service:
                async with AdvisorServer(service) as server:
                    client = await AdvisorClient.connect(
                        server.host, server.port
                    )
                    try:
                        with pytest.raises(InvalidRequest) as excinfo:
                            await client.advise(
                                _histogram_request(0, codec="gzip")
                            )
                        assert excinfo.value.code == "unknown-codec"
                        # The connection survived; a good request follows.
                        advice = await client.advise(_histogram_request(0))
                    finally:
                        await client.aclose()
            return advice

        advice = asyncio.run(scenario())
        assert advice.digest == advise_one(_histogram_request(0)).digest


# ---------------------------------------------------------------------------
class TestWorkBudget:
    """The advisor's work per batch, pinned exactly: a cold batch makes
    one bulk profile call, one evaluate call and one digest per
    distinct answer; the same batch again is store lookups only.
    Both passes key every request, so each canonicalises the three
    arrays of each of its three histogram requests."""

    def test_hot_batch_makes_no_digest_profile_or_evaluate(
        self, monkeypatch
    ):
        requests = [
            _histogram_request(0),
            _histogram_request(1),
            _histogram_request(0),  # repeated within the batch
            AdviceRequest(benchmark="VGG16", thresholds=(0.3,)),
            AdviceRequest(benchmark="VGG16", thresholds=(0.2, 0.4)),
        ]
        expected = [advise_one(r, config=TINY).digest for r in requests]
        digested = []

        def counting(value):
            digested.append(value)
            return result_digest(value)

        monkeypatch.setattr(store_mod, "result_digest", counting)
        arrays = []
        dtype_name = cache_mod._dtype_name

        def counting_arrays(dtype):
            arrays.append(dtype)
            return dtype_name(dtype)

        monkeypatch.setattr(cache_mod, "_dtype_name", counting_arrays)
        hot = ArtifactStore()
        previous = profiler_mod.set_tensor_cache(hot)  # as the service does
        try:
            work = []
            for _ in range(2):
                profiles = profiler_mod.bulk_compression_call_count()
                evaluates = controller_mod.evaluate_bulk_call_count()
                del digested[:]
                del arrays[:]
                advices = advise_batch(requests, cache=hot, config=TINY)
                assert [a.digest for a in advices] == expected
                work.append(
                    (
                        len(digested),
                        profiler_mod.bulk_compression_call_count() - profiles,
                        controller_mod.evaluate_bulk_call_count() - evaluates,
                        len(arrays),
                    )
                )
        finally:
            profiler_mod.set_tensor_cache(previous)
        # (digests, bulk profile calls, evaluate calls, ndarray
        # canonicalisations) per pass.
        assert work == [(4, 1, 1, 9), (0, 0, 0, 9)]


# ---------------------------------------------------------------------------
class TestValidateOnce:
    """A client profile is validated when the request is parsed, and
    the advisor evaluates that validated tensor as is."""

    def test_one_from_payload_call_per_client_profile(self, monkeypatch):
        bodies = [_histogram_request(seed).to_json() for seed in range(3)]
        expected = [advise_one(_histogram_request(s)).digest for s in range(3)]
        calls = []
        original = ProfileTensor.from_payload

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(ProfileTensor, "from_payload", counting)
        requests = [AdviceRequest.from_json(body) for body in bodies]
        advices = advise_batch(requests)
        assert calls == ["client-0", "client-1", "client-2"]
        assert [advice.digest for advice in advices] == expected

    def test_bad_histogram_code_is_unchanged(self):
        body = _histogram_request(0).to_json()
        body["histogram"]["counts"][0][0][0] = -1
        with pytest.raises(InvalidRequest) as excinfo:
            AdviceRequest.from_json(body)
        assert excinfo.value.code == "bad-histogram"
