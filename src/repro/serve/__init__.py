"""The always-on compression-advisor service.

``repro serve`` boots an asyncio service that answers "given this
allocation profile, which codec, Buddy Threshold and design point
should I run?" by routing through the unchanged columnar pipeline:
micro-batched admission coalesces concurrent requests into single
bulk profile/evaluate calls, the service's own bounded artifact store
holds tensors and answers, and bounded-queue back-pressure keeps the
loop responsive.  Answers are digest-identical to one-shot ``repro
run serve.advice`` results — see docs/serving.md.
"""

from repro.serve.advisor import (
    advice_point,
    advise_batch,
    advise_one,
    request_cache_key,
)
from repro.serve.clock import Clock, ManualClock, MonotonicClock
from repro.serve.protocol import (
    Advice,
    AdviceError,
    AdviceRequest,
    Histogram,
    InvalidRequest,
    ServiceClosed,
    ServiceOverloaded,
    build_histogram,
)
from repro.serve.server import AdvisorClient, AdvisorServer
from repro.serve.service import AdvisorService, ServiceConfig, ServiceStats

__all__ = [
    "Advice",
    "AdviceError",
    "AdviceRequest",
    "AdvisorClient",
    "AdvisorServer",
    "AdvisorService",
    "Clock",
    "Histogram",
    "InvalidRequest",
    "ManualClock",
    "MonotonicClock",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceOverloaded",
    "ServiceStats",
    "advice_point",
    "advise_batch",
    "advise_one",
    "build_histogram",
    "request_cache_key",
]
