"""The advisor's answer path: profile -> select -> evaluate -> rank.

:func:`advise_batch` is the single entry point both the asyncio
service and the registered ``serve.advice`` experiment call, so a
batched concurrent answer is byte-identical to a one-shot ``repro
run serve.advice`` answer for the same question.  Batch structure
mirrors the planner's coalescing contract:

* all missing benchmark profiles of a batch that share a (codec,
  snapshot config) resolve through ONE
  :func:`repro.core.profiler.profile_tensors_bulk` call (one bulk
  ``compressed_sizes`` pass), and
* all selection evaluations of a batch flow through ONE
  :func:`repro.core.controller.evaluate_selections_batch` call,

so N coalesced requests advance the two bulk-call counters at most
``ceil(N / max_batch)`` times — the counter-pinned tests assert it.

Answers are memoised under the ``serve.advice`` cache namespace keyed
by the request's parameter digest (same salt discipline as every
experiment), which is what the service's shared hot cache stores.
Every answer resolves through one
:class:`~repro.engine.store.ArtifactStore` — the service's hot store,
or a private one over the given result cache (or none) for one-shot
calls — and takes its digest from the store, which computes it once
per resident answer.  So a hot hit costs a store lookup: no profile,
no evaluate and no digest.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core import targets as targets_mod
from repro.core.controller import evaluate_selections_batch
from repro.core.profile_tensor import TARGET_ORDER, ProfileTensor
from repro.core.profiler import profile_tensors_bulk
from repro.serve.protocol import CODECS, Advice, AdviceRequest
from repro.workloads.snapshots import SnapshotConfig

#: The registered experiment this module is the run point of.
ADVICE_EXPERIMENT = "serve.advice"

#: Wire value of each target, on the target axis.
_TARGET_VALUES = tuple(target.value for target in TARGET_ORDER)


def advice_salt() -> str:
    """Code salt of the ``serve.advice`` experiment (single source)."""
    from repro.engine.registry import get_experiment
    from repro.engine.salts import experiment_salt

    return experiment_salt(get_experiment(ADVICE_EXPERIMENT))


def request_cache_key(request: AdviceRequest):
    """On-disk / hot-cache address of one request's answer."""
    from repro.engine.cache import CacheKey, param_digest

    return CacheKey(
        ADVICE_EXPERIMENT,
        param_digest(ADVICE_EXPERIMENT, request.payload(), advice_salt()),
    )


def _candidate_rows(
    tensor: ProfileTensor, request: AdviceRequest
) -> tuple[list[tuple[str, float | None]], np.ndarray]:
    """Every (design, threshold) the request asks about, with its row.

    Returns the candidates' labels and their ``(K, A)`` target-index
    matrix: the naive row, the per-allocation rows and the final rows,
    in request order.  Rows come from the same
    :mod:`repro.core.targets` policies the figure studies use; the
    per-allocation threshold sweep reduces over one worst-overflow
    matrix exactly like Fig. 9's hot path, and the zero-page promotion
    runs over all its threshold rows at once.
    """
    thresholds = tuple(float(t) for t in request.thresholds)
    per_alloc_rows = None
    if "per-allocation" in request.designs or "final" in request.designs:
        per_alloc_rows = targets_mod.select_per_allocation_indices(
            tensor, thresholds
        )
    labels: list[tuple[str, float | None]] = []
    blocks = []
    for design in request.designs:
        if design == "naive":
            labels.append((design, None))
            blocks.append(targets_mod.select_naive_indices(tensor)[None, :])
            continue
        rows = per_alloc_rows
        if design == "final":
            rows = targets_mod.apply_zero_page_indices(rows, tensor)
        labels.extend((design, threshold) for threshold in thresholds)
        blocks.append(rows)
    return labels, np.concatenate(blocks)


def _recommend(evaluations: list[dict], budget: float | None) -> dict:
    """Pick the answer: best ratio within the buddy-traffic budget.

    Candidates over ``budget`` (buddy-entry fraction) are dropped; if
    none fit, the least-traffic candidate stands in so the client
    always gets a ranked answer.  Ties break toward lower sector
    traffic, then earlier (request) order — all deterministic.
    """
    pool = evaluations
    if budget is not None:
        within = [e for e in pool if e["buddy_entry_fraction"] <= budget]
        if not within:
            floor = min(e["buddy_entry_fraction"] for e in pool)
            within = [e for e in pool if e["buddy_entry_fraction"] == floor]
        pool = within
    best = pool[0]
    for entry in pool[1:]:
        if entry["compression_ratio"] > best["compression_ratio"]:
            best = entry
        elif (
            entry["compression_ratio"] == best["compression_ratio"]
            and entry["buddy_sector_fraction"] < best["buddy_sector_fraction"]
        ):
            best = entry
    return dict(best)


def advise_batch(
    requests,
    cache=None,
    config: SnapshotConfig | None = None,
) -> list[Advice]:
    """Answer a batch of requests through one coalesced pipeline pass.

    ``cache`` is the service's hot
    :class:`~repro.engine.store.ArtifactStore`, a
    :class:`~repro.engine.cache.ResultCache` or ``None``; the latter
    two are wrapped in a private store for this call.  Answered
    payloads are stored under the ``serve.advice`` namespace, once per
    distinct request in the batch.  ``config`` is the base snapshot
    configuration benchmark-backed requests profile under (requests
    carrying ``scale`` override it per request).
    """
    requests = list(requests)
    for request in requests:
        request.validate()
    base_config = config or SnapshotConfig()
    salt_key = [request_cache_key(request) for request in requests]

    from repro.engine.cache import CacheMiss
    from repro.engine.store import ArtifactStore

    store = cache
    if not isinstance(store, ArtifactStore):
        store = ArtifactStore(backing=cache)
    payloads: dict[int, dict] = {}
    for position, key in enumerate(salt_key):
        try:
            payloads[position] = store.get(key)
        except CacheMiss:
            pass

    # -- resolve profile tensors for the misses ------------------------
    # A request repeated within the batch is answered once, by the
    # first position that asks it.
    first: dict = {}
    for position, key in enumerate(salt_key):
        first.setdefault(key, position)
    misses = [
        position
        for position, key in enumerate(salt_key)
        if first[key] == position and position not in payloads
    ]
    tensors: dict[int, ProfileTensor] = {}
    profile_groups: dict[tuple, list[int]] = {}
    for position in misses:
        request = requests[position]
        if request.histogram is not None:
            tensors[position] = request.histogram
            continue
        cfg = base_config
        if request.scale is not None:
            cfg = replace(base_config, scale=float(request.scale))
        profile_groups.setdefault((request.codec, cfg), []).append(position)
    for (codec, cfg), positions in profile_groups.items():
        algorithm = CODECS[codec]()
        built = profile_tensors_bulk(
            [requests[p].benchmark for p in positions], cfg, algorithm
        )
        for position in positions:
            tensors[position] = built[requests[position].benchmark]

    # -- one bulk evaluation call for the whole batch ------------------
    candidates = [_candidate_rows(tensors[p], requests[p]) for p in misses]
    evaluated = (
        evaluate_selections_batch(
            [(tensors[p], rows) for p, (_, rows) in zip(misses, candidates)]
        )
        if misses
        else []
    )

    # -- assemble payloads ---------------------------------------------
    for position, (labels, rows), batch in zip(
        misses, candidates, evaluated
    ):
        request = requests[position]
        tensor = tensors[position]
        evaluations = [
            {
                "design": design,
                "threshold": threshold,
                "compression_ratio": ratio,
                "buddy_entry_fraction": entry,
                "buddy_sector_fraction": sectors,
                "selection": dict(
                    zip(tensor.names, [_TARGET_VALUES[i] for i in row])
                ),
            }
            for (design, threshold), ratio, entry, sectors, row in zip(
                labels,
                batch.ratios.tolist(),
                batch.entry_means().tolist(),
                batch.sector_means().tolist(),
                rows.tolist(),
            )
        ]
        payload = {
            "benchmark": tensor.benchmark,
            "codec": request.codec,
            "evaluations": evaluations,
            "recommendation": _recommend(
                evaluations, request.max_buddy_fraction
            ),
        }
        payloads[position] = payload
        store.put(salt_key[position], payload)

    answers = []
    for key in salt_key:
        payload = payloads[first[key]]
        answers.append(
            Advice(
                request_digest=key.digest,
                payload=payload,
                digest=store.digest(key, payload),
            )
        )
    return answers


def advise_one(
    request: AdviceRequest,
    cache=None,
    config: SnapshotConfig | None = None,
) -> Advice:
    """One-shot form of :func:`advise_batch` (a batch of one)."""
    return advise_batch([request], cache=cache, config=config)[0]


def advice_point(
    benchmark: str,
    codec: str,
    thresholds,
    designs,
    config: SnapshotConfig,
) -> dict:
    """``serve.advice`` experiment run point (one benchmark's answer).

    Returns the same payload dict the service answers with, so
    ``result_digest`` of a service answer equals ``result_digest`` of
    this point's value — the digest-parity contract.
    """
    request = AdviceRequest(
        benchmark=benchmark,
        codec=codec,
        thresholds=tuple(thresholds),
        designs=tuple(designs),
    )
    return advise_one(request, config=config).payload
