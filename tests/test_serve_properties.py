"""Property tests: the advisor service versus the pipeline's raw math.

Two contracts, Hypothesis-driven:

* **equivalence** — any valid client profile answered through the
  batched service carries exactly the evaluations the legacy
  per-histogram algorithms of ``test_columnar.py`` produce (same
  floats, same order), and the recommendation is the best ratio of
  that set;
* **robustness** — malformed requests (NaN histograms, negative
  counts, unknown codecs, arbitrary JSON junk) surface as
  :class:`repro.serve.protocol.InvalidRequest` with a stable code, never as a
  bare ``TypeError``/``ValueError``/500-style internal error.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.targets import NAIVE_OVERFLOW_CAP, ZERO_PAGE_TOLERANCE
from repro.serve.clock import ManualClock
from repro.serve.protocol import (
    AdviceRequest,
    InvalidRequest,
    build_histogram,
    DESIGNS,
)
from repro.serve.service import AdvisorService, ServiceConfig
from test_columnar import (
    histogram_views,
    legacy_apply_zero_page,
    legacy_evaluate_traffic,
    legacy_select_naive,
    legacy_select_per_allocation,
    legacy_selection_ratio,
)

#: Sector buckets per entry (counts' last axis).
BUCKETS = 4


@st.composite
def histograms(draw):
    """A random valid client profile (ProfileTensor payload layout)."""
    allocations = draw(st.integers(1, 3))
    snapshots = draw(st.integers(1, 3))
    counts = draw(
        hnp.arrays(
            np.int64,
            (allocations, snapshots, BUCKETS),
            elements=st.integers(0, 30),
        )
    )
    zero_fit = np.minimum(
        draw(
            hnp.arrays(
                np.int64,
                (allocations, snapshots),
                elements=st.integers(0, 30),
            )
        ),
        counts[:, :, 0],
    )
    fractions = draw(
        hnp.arrays(
            np.float64,
            (allocations,),
            elements=st.floats(0.01, 1.0, allow_nan=False),
        )
    )
    # A profile needs entries behind every allocation to be valid.
    assume(counts.sum(axis=(1, 2)).all())
    names = tuple(f"alloc{i}" for i in range(allocations))
    return build_histogram("property", names, fractions, counts, zero_fit)


@st.composite
def advice_requests(draw):
    histogram = draw(histograms())
    thresholds = tuple(
        sorted(
            draw(
                st.lists(
                    st.floats(0.05, 1.0, allow_nan=False),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        )
    )
    chosen = draw(st.sets(st.sampled_from(DESIGNS), min_size=1))
    designs = tuple(design for design in DESIGNS if design in chosen)
    return AdviceRequest(
        histogram=histogram, thresholds=thresholds, designs=designs
    )


def _service_answer(request: AdviceRequest) -> dict:
    """The request's payload as answered by a running batched service."""

    async def scenario():
        service = AdvisorService(
            config=ServiceConfig(max_batch=1, max_delay=60.0),
            clock=ManualClock(),
        )
        async with service:
            return await service.submit(request)

    return asyncio.run(scenario()).payload


def _direct_evaluations(request: AdviceRequest) -> list[dict]:
    """The same candidates, assembled from the per-histogram oracle.

    Selection, zero-page promotion, ratio and traffic all come from
    the legacy per-allocation algorithms in ``test_columnar.py``, so
    the served answer is checked against code it does not share.
    """
    tensor = request.histogram
    views = histogram_views(tensor)
    candidates = []
    for design in request.designs:
        if design == "naive":
            selection = legacy_select_naive(views, NAIVE_OVERFLOW_CAP)
            candidates.append((design, None, selection))
            continue
        for threshold in request.thresholds:
            selection = legacy_select_per_allocation(views, threshold)
            if design == "final":
                selection = legacy_apply_zero_page(
                    selection,
                    views,
                    tensor.names,
                    tensor.fractions,
                    ZERO_PAGE_TOLERANCE,
                )
            candidates.append((design, threshold, selection))
    evaluations = []
    for design, threshold, selection in candidates:
        entry, sectors = legacy_evaluate_traffic(
            views, selection, tensor.snapshot_count
        )
        evaluations.append(
            {
                "design": design,
                "threshold": threshold,
                "compression_ratio": legacy_selection_ratio(
                    selection, tensor.names, tensor.fractions
                ),
                "buddy_entry_fraction": float(np.mean(entry)),
                "buddy_sector_fraction": float(np.mean(sectors)),
                "selection": {
                    name: ratio.value for name, ratio in selection.items()
                },
            }
        )
    return evaluations


class TestServiceMatchesDirectMath:
    @settings(max_examples=25, deadline=None)
    @given(request=advice_requests())
    def test_served_evaluations_equal_direct_pipeline(self, request):
        payload = _service_answer(request)
        assert payload["evaluations"] == _direct_evaluations(request)

    @settings(max_examples=25, deadline=None)
    @given(request=advice_requests())
    def test_recommendation_is_the_best_served_ratio(self, request):
        payload = _service_answer(request)
        best = max(e["compression_ratio"] for e in payload["evaluations"])
        assert payload["recommendation"]["compression_ratio"] == best
        assert payload["recommendation"] in payload["evaluations"]


# ---------------------------------------------------------------------------
_JSON_JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=12,
)


class TestMalformedRequestsStayTyped:
    @settings(max_examples=100, deadline=None)
    @given(body=_JSON_JUNK)
    def test_from_json_raises_only_invalid_request(self, body):
        try:
            AdviceRequest.from_json(body)
        except InvalidRequest:
            pass  # typed rejection: the contract

    @settings(max_examples=50, deadline=None)
    @given(body=st.dictionaries(
        st.sampled_from(
            [
                "benchmark",
                "histogram",
                "codec",
                "thresholds",
                "designs",
                "scale",
                "max_buddy_fraction",
                "bogus",
            ]
        ),
        _JSON_JUNK,
        max_size=4,
    ))
    def test_known_field_junk_raises_only_invalid_request(self, body):
        try:
            AdviceRequest.from_json(body)
        except InvalidRequest as err:
            assert err.code and " " not in err.code

    @pytest.mark.parametrize(
        "histogram_kwargs, fragment",
        [
            (dict(fractions=(float("nan"),)), "finite"),
            (dict(fractions=(-0.5,)), "non-negative"),
            (dict(fractions=(0.0,)), "positive"),
            (dict(counts=[[[-1, 0, 0, 0]]]), "non-negative"),
            (dict(counts=[[[0.5, 0, 0, 0]]]), "whole"),
            (dict(counts=[[[1, 2, 3]]]), "sector buckets"),
            (dict(zero_fit=[[5]]), "zero_fit exceeds"),
            (dict(names=()), "at least one allocation"),
            (dict(names=("a", "a")), "unique"),
            (
                dict(
                    counts=np.zeros((1, 0, BUCKETS), np.int64),
                    zero_fit=np.zeros((1, 0), np.int64),
                ),
                "at least one snapshot",
            ),
            (dict(counts=[[[0, 0, 0, 0]]], zero_fit=[[0]]), "no entries"),
            (
                dict(
                    names=("a", "b"),
                    fractions=(0.5, 0.5),
                    counts=[[[1, 0, 0, 0]], [[0, 0, 0, 0]]],
                    zero_fit=[[1], [0]],
                ),
                "'b' has no entries",
            ),
        ],
    )
    def test_bad_histograms_get_the_bad_histogram_code(
        self, histogram_kwargs, fragment
    ):
        base = dict(
            names=("a",),
            fractions=(1.0,),
            counts=[[[1, 0, 0, 0]]],
            zero_fit=[[1]],
        )
        base.update(histogram_kwargs)
        if "names" in histogram_kwargs:
            # Keep array shapes consistent with the names override
            # unless the case gives them itself.
            count = max(len(histogram_kwargs["names"]), 1)
            for field, value in (
                ("fractions", (1.0,) * count),
                ("counts", [[[1, 0, 0, 0]]] * count),
                ("zero_fit", [[1]] * count),
            ):
                base[field] = histogram_kwargs.get(field, value)
        with pytest.raises(InvalidRequest) as excinfo:
            build_histogram("bad", **base)
        assert excinfo.value.code == "bad-histogram"
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "fields, code",
        [
            (dict(histogram=None), "missing-profile"),
            (dict(codec="gzip"), "unknown-codec"),
            (dict(codec=42), "unknown-codec"),
            (dict(thresholds=()), "bad-threshold"),
            (dict(thresholds=(0.0,)), "bad-threshold"),
            (dict(thresholds=(1.5,)), "bad-threshold"),
            (dict(thresholds=("hot",)), "bad-threshold"),
            (dict(thresholds=7), "bad-threshold"),
            (dict(designs=()), "unknown-design"),
            (dict(designs=("naive", "naive")), "unknown-design"),
            (dict(designs=("ideal",)), "unknown-design"),
            (dict(scale=0.0), "bad-scale"),
            (dict(scale=2.0), "bad-scale"),
            (dict(max_buddy_fraction=-0.1), "bad-buddy-budget"),
            (dict(benchmark="NoSuchBench", histogram=None), None),
        ],
    )
    def test_bad_fields_get_their_stable_codes(self, fields, code):
        base = dict(histogram=None)
        if "histogram" not in fields:
            base["histogram"] = _tiny_histogram()
        base.update(fields)
        if base.get("benchmark") == "NoSuchBench":
            code = "unknown-benchmark"
        request = AdviceRequest(**base)
        with pytest.raises(InvalidRequest) as excinfo:
            request.validate()
        assert excinfo.value.code == code


def _tiny_histogram():
    return build_histogram(
        "tiny", ("a",), (1.0,), [[[2, 1, 0, 0]]], [[1]]
    )
