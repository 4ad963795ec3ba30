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
