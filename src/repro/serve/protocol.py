"""Advisor request/response schema and typed service errors.

The advisor answers one question: *given this allocation profile,
which codec, Buddy Threshold and design point should I run?*  A
request names either a catalog benchmark (the service profiles it) or
carries a raw ``(allocations x snapshots x sector-buckets)`` histogram
(the client profiled it); both resolve to the same columnar
:class:`~repro.core.profile_tensor.ProfileTensor` and flow through
the unchanged selection/evaluation machinery, so answers are
digest-identical to a one-shot ``repro run serve.advice``.

Validation is strict and synchronous: a malformed request raises
:class:`InvalidRequest` with a stable ``code`` before it ever reaches
the admission queue — the service never turns client mistakes into
internal errors.  Everything here must stay deterministic (this
module is in the ``serve.advice`` experiment's code salt).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compression.bdi import BDICompressor
from repro.compression.bpc import BPCCompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.fpc import FPCCompressor
from repro.compression.zeroblock import ZeroBlockCompressor
from repro.core.profile_tensor import ProfileTensor

#: Codec registry: wire name -> compressor class.  BPC is the paper's
#: choice; the comparison codecs are the Fig. 3 shoot-out set.
CODECS = {
    "bpc": BPCCompressor,
    "bdi": BDICompressor,
    "fpc": FPCCompressor,
    "cpack": CPackCompressor,
    "zero": ZeroBlockCompressor,
}

#: Design points the advisor evaluates (Fig. 7's x-axis).
DESIGNS = ("naive", "per-allocation", "final")

#: The paper's Fig. 9 threshold grid (the default candidate set).
DEFAULT_THRESHOLDS = (0.10, 0.20, 0.30, 0.40)


class AdviceError(Exception):
    """Base class of every typed advisor-service error."""


class InvalidRequest(AdviceError, ValueError):
    """A malformed request, rejected at admission with a stable code.

    ``code`` is part of the wire protocol (clients switch on it):
    ``unknown-codec``, ``unknown-benchmark``, ``unknown-design``,
    ``bad-threshold``, ``bad-histogram``, ``bad-scale``,
    ``bad-buddy-budget``, ``missing-profile``, ``ambiguous-profile``,
    ``bad-request``.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class ServiceOverloaded(AdviceError):
    """Admission queue full: the 429-style back-pressure rejection."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"advisor admission queue is full; retry after "
            f"{retry_after:g}s"
        )
        self.retry_after = retry_after


class ServiceClosed(AdviceError):
    """The service is draining or stopped; no new requests admitted."""


@dataclass(frozen=True)
class AdviceRequest:
    """One advisor question.

    Exactly one of ``benchmark`` / ``histogram`` must be given;
    ``histogram`` is a client-supplied profile that
    :func:`build_histogram` validated, evaluated as is.
    ``thresholds`` are the Buddy Threshold candidates swept for the
    per-allocation and final designs; ``max_buddy_fraction`` bounds
    the recommendation's buddy-entry traffic (requests exceeding it
    fall back to the least-traffic candidate); ``scale`` overrides the
    benchmark snapshot scale (histogram requests need none).
    """

    benchmark: str | None = None
    histogram: ProfileTensor | None = None
    codec: str = "bpc"
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    designs: tuple[str, ...] = DESIGNS
    scale: float | None = None
    max_buddy_fraction: float | None = field(default=None)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`InvalidRequest` unless the request is well formed."""
        if self.benchmark is None and self.histogram is None:
            raise InvalidRequest(
                "missing-profile",
                "request must carry a benchmark name or a histogram",
            )
        if self.benchmark is not None and self.histogram is not None:
            raise InvalidRequest(
                "ambiguous-profile",
                "request must carry a benchmark name or a histogram, "
                "not both",
            )
        if self.benchmark is not None:
            from repro.workloads.catalog import get_benchmark

            if not isinstance(self.benchmark, str):
                raise InvalidRequest(
                    "unknown-benchmark", "benchmark name must be a string"
                )
            try:
                get_benchmark(self.benchmark)
            except KeyError as err:
                raise InvalidRequest(
                    "unknown-benchmark", str(err.args[0])
                ) from None
        if not isinstance(self.codec, str) or self.codec not in CODECS:
            raise InvalidRequest(
                "unknown-codec",
                f"unknown codec {self.codec!r}; "
                f"registered: {', '.join(CODECS)}",
            )
        try:
            thresholds = tuple(self.thresholds)
        except TypeError:
            raise InvalidRequest(
                "bad-threshold", "thresholds must be a sequence"
            ) from None
        if not thresholds:
            raise InvalidRequest(
                "bad-threshold", "at least one threshold is required"
            )
        for threshold in thresholds:
            try:
                value = float(threshold)
            except (TypeError, ValueError):
                value = float("nan")
            if not (0.0 < value <= 1.0):
                raise InvalidRequest(
                    "bad-threshold",
                    f"threshold {threshold!r} is not in (0, 1]",
                )
        try:
            designs = tuple(self.designs)
        except TypeError:
            raise InvalidRequest(
                "unknown-design", "designs must be a sequence"
            ) from None
        if not designs:
            raise InvalidRequest(
                "unknown-design", "at least one design point is required"
            )
        for design in designs:
            if design not in DESIGNS:
                raise InvalidRequest(
                    "unknown-design",
                    f"unknown design {design!r}; "
                    f"registered: {', '.join(DESIGNS)}",
                )
        if len(dict.fromkeys(designs)) != len(designs):
            raise InvalidRequest(
                "unknown-design", "design points must be unique"
            )
        if self.scale is not None:
            try:
                value = float(self.scale)
            except (TypeError, ValueError):
                value = float("nan")
            if not (0.0 < value <= 1.0):
                raise InvalidRequest(
                    "bad-scale", f"scale {self.scale!r} is not in (0, 1]"
                )
        if self.max_buddy_fraction is not None:
            try:
                value = float(self.max_buddy_fraction)
            except (TypeError, ValueError):
                value = float("nan")
            if not (0.0 <= value <= 1.0):
                raise InvalidRequest(
                    "bad-buddy-budget",
                    f"max_buddy_fraction {self.max_buddy_fraction!r} "
                    "is not in [0, 1]",
                )

    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """Canonical parameter payload (request digests hash this)."""
        histogram = None
        tensor = self.histogram
        if tensor is not None:
            histogram = {
                "label": tensor.benchmark,
                "names": tensor.names,
                "fractions": tensor.fractions,
                "counts": tensor.counts,
                "zero_fit": tensor.zero_fit,
            }
        return {
            "benchmark": self.benchmark,
            "histogram": histogram,
            "codec": self.codec,
            "thresholds": tuple(float(t) for t in self.thresholds),
            "designs": tuple(self.designs),
            "scale": None if self.scale is None else float(self.scale),
            "max_buddy_fraction": (
                None
                if self.max_buddy_fraction is None
                else float(self.max_buddy_fraction)
            ),
        }

    def to_json(self) -> dict:
        """Wire (JSON-lines) form of the request."""
        body = self.payload()
        tensor = self.histogram
        if tensor is not None:
            body["histogram"] = {
                "label": tensor.benchmark,
                "names": list(tensor.names),
                "fractions": tensor.fractions.tolist(),
                "counts": tensor.counts.tolist(),
                "zero_fit": tensor.zero_fit.tolist(),
            }
        body["thresholds"] = list(body["thresholds"])
        body["designs"] = list(body["designs"])
        return body

    @classmethod
    def from_json(cls, body) -> "AdviceRequest":
        """Parse and validate one wire request."""
        if not isinstance(body, dict):
            raise InvalidRequest(
                "bad-request", "request body must be a JSON object"
            )
        known = {
            "benchmark",
            "histogram",
            "codec",
            "thresholds",
            "designs",
            "scale",
            "max_buddy_fraction",
        }
        unknown = [key for key in body if key not in known]
        if unknown:
            raise InvalidRequest(
                "bad-request",
                f"unknown request field(s): {', '.join(sorted(unknown))}",
            )
        histogram = body.get("histogram")
        if histogram is not None:
            if not isinstance(histogram, dict):
                raise InvalidRequest(
                    "bad-histogram", "histogram must be a JSON object"
                )
            try:
                histogram = build_histogram(
                    label=histogram.get("label", "client-profile"),
                    names=histogram.get("names", ()),
                    fractions=histogram.get("fractions", ()),
                    counts=histogram.get("counts", ()),
                    zero_fit=histogram.get("zero_fit", ()),
                )
            except InvalidRequest:
                raise
            except (TypeError, ValueError) as err:
                raise InvalidRequest("bad-histogram", str(err)) from None
        try:
            request = cls(
                benchmark=body.get("benchmark"),
                histogram=histogram,
                codec=body.get("codec", "bpc"),
                thresholds=tuple(body.get("thresholds", DEFAULT_THRESHOLDS)),
                designs=tuple(body.get("designs", DESIGNS)),
                scale=body.get("scale"),
                max_buddy_fraction=body.get("max_buddy_fraction"),
            )
        except TypeError as err:
            raise InvalidRequest("bad-request", str(err)) from None
        request.validate()
        return request


def build_histogram(
    label: str, names, fractions, counts, zero_fit
) -> ProfileTensor:
    """Validate raw profile arrays into a client :class:`ProfileTensor`.

    The arrays follow its layout: ``counts`` is ``(A, S, 4)``,
    ``zero_fit`` ``(A, S)``, ``fractions`` ``(A,)``.

    Validation is delegated to
    :meth:`~repro.core.profile_tensor.ProfileTensor.from_payload` (the
    pipeline's single histogram choke point); failures surface as
    :class:`InvalidRequest` with code ``bad-histogram``.
    """
    try:
        return ProfileTensor.from_payload(
            str(label), names, fractions, counts, zero_fit
        )
    except ValueError as err:
        raise InvalidRequest("bad-histogram", str(err)) from None


@dataclass(frozen=True)
class Advice:
    """One advisor answer.

    ``payload`` is the exact value the ``serve.advice`` experiment's
    run point returns for the same question, so ``digest`` (its
    :func:`repro.engine.cache.result_digest`) matches the one-shot
    ``repro run`` digest — the service is a serving skin over the
    pipeline, never a second math path.
    """

    request_digest: str
    payload: dict
    digest: str

    @property
    def recommendation(self) -> dict:
        return self.payload["recommendation"]

    @property
    def evaluations(self) -> list:
        return self.payload["evaluations"]

    def to_json(self) -> dict:
        return {
            "request_digest": self.request_digest,
            "digest": self.digest,
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, body: dict) -> "Advice":
        return cls(
            request_digest=body["request_digest"],
            payload=body["payload"],
            digest=body["digest"],
        )
