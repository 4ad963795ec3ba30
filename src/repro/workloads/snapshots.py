"""Synthetic GPU memory-dump generator.

Mirrors the paper's methodology (Section 3.1): the run of each
benchmark is divided into ten regions and a dump of the allocated
device memory is taken at each region boundary.  Dumps are generated
from the calibrated allocation specs in
:mod:`repro.workloads.calibration`:

* each entry has a *latent* value that selects its compressibility
  class through the allocation's (possibly drifting) class mix;
* latents are spatially arranged per the allocation layout
  (homogeneous blocks, stripes, or i.i.d.), reproducing Fig. 6;
* a churn fraction of latents re-rolls between snapshots, reproducing
  the DL pool-reuse behaviour behind Fig. 8;
* the *profile* role generates a perturbed, smaller dataset — the
  paper profiles on a train dataset / smaller batch — so target
  ratios chosen from profiling see realistic drift at evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import rng as rng_lib
from repro.units import KIB, MEMORY_ENTRY_BYTES
from repro.workloads.calibration import (
    LAYOUT_BLOCKED,
    LAYOUT_STRIPED,
    LAYOUT_UNIFORM,
    AllocationSpec,
    BenchmarkDataSpec,
    ClassMix,
    data_spec,
)
from repro.workloads.catalog import get_benchmark
from repro.workloads.valuemodels import generate_entries

#: Snapshots per run, per the paper.
SNAPSHOTS_PER_RUN = 10

#: Fraction of blocked-layout entries re-rolled i.i.d. from the mix —
#: the scattered off-class entries visible inside the homogeneous
#: regions of the paper's Fig. 6 heatmaps.
_BLOCKED_SPECKLE = 0.08

#: Roles for :class:`SnapshotConfig`.
ROLE_REFERENCE = "reference"
ROLE_PROFILE = "profile"


@dataclass(frozen=True)
class SnapshotConfig:
    """Scaling and reproducibility knobs for snapshot generation.

    Attributes:
        scale: Footprint scale factor relative to Table 1 (the paper's
            multi-GB dumps are impractical in pure Python).
        min_footprint_bytes: Scaled footprints are clamped below this
            so tiny benchmarks (370.bt is 1.21 MB native) still yield
            meaningful histograms.
        snapshots: Dumps per run.
        seed: Global experiment seed.
        role: ``reference`` or ``profile`` (see module docstring).
        profile_scale_factor: Additional shrink applied to profile
            datasets.
        profile_jitter: Log-normal sigma applied to profile class
            mixes, modelling train-vs-reference dataset drift.
    """

    scale: float = 1.0 / 16384
    min_footprint_bytes: int = 512 * KIB
    snapshots: int = SNAPSHOTS_PER_RUN
    seed: int = rng_lib.DEFAULT_SEED
    role: str = ROLE_REFERENCE
    profile_scale_factor: float = 0.5
    profile_jitter: float = 0.10

    def as_profile(self) -> "SnapshotConfig":
        """The profile-role twin of this configuration."""
        return replace(self, role=ROLE_PROFILE)


@dataclass
class AllocationSnapshot:
    """One allocation's contents at one dump point."""

    spec: AllocationSpec
    classes: np.ndarray  # (n,) EntryClass values
    data: np.ndarray  # (n, 32) uint32 memory-entry words
    latents: np.ndarray  # (n,) latents after this dump's churn steps

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def entries(self) -> int:
        return int(self.classes.size)

    @property
    def bytes(self) -> int:
        return self.entries * MEMORY_ENTRY_BYTES


@dataclass
class MemorySnapshot:
    """One full-device memory dump of a benchmark."""

    benchmark: str
    index: int
    progress: float
    allocations: list[AllocationSnapshot]

    @property
    def entries(self) -> int:
        return sum(a.entries for a in self.allocations)

    @property
    def footprint_bytes(self) -> int:
        return self.entries * MEMORY_ENTRY_BYTES

    def allocation(self, name: str) -> AllocationSnapshot:
        for alloc in self.allocations:
            if alloc.name == name:
                return alloc
        raise KeyError(f"no allocation {name!r} in {self.benchmark}")

    def stacked_data(self) -> np.ndarray:
        """All entries of the dump as one ``(n, 32)`` array."""
        return np.concatenate([a.data for a in self.allocations], axis=0)

    def stacked_classes(self) -> np.ndarray:
        """All entry classes of the dump as one ``(n,)`` array."""
        return np.concatenate([a.classes for a in self.allocations])

    def entry_state(self):
        """Reduce the dump to its per-entry compression state.

        Returns the compact
        :class:`~repro.core.profile_tensor.EntryStateTensor` (nominal
        sectors, zero-slot eligibility, allocation layout) the
        simulators consume.  Cached access goes through
        :func:`repro.core.profiler.entry_state_tensor`, which serves
        this reduction from the artifact store instead of regenerating
        the dump.
        """
        from repro.core.profile_tensor import EntryStateTensor
        from repro.workloads.valuemodels import (
            nominal_sectors_for,
            zero_class_eligible_for,
        )

        allocations = self.allocations
        empty = np.zeros(0, dtype=np.int64)
        return EntryStateTensor(
            benchmark=self.benchmark,
            index=self.index,
            names=tuple(a.name for a in allocations),
            fractions=np.array([a.spec.fraction for a in allocations]),
            access_weights=np.array(
                [a.spec.access_weight for a in allocations]
            ),
            entry_counts=np.array(
                [a.entries for a in allocations], dtype=np.int64
            ),
            sectors=np.concatenate(
                [nominal_sectors_for(a.classes) for a in allocations] or [empty]
            ),
            zero_fit=np.concatenate(
                [zero_class_eligible_for(a.classes) for a in allocations]
                or [empty.astype(bool)]
            ),
        )


def _entry_counts(spec: BenchmarkDataSpec, config: SnapshotConfig) -> list[int]:
    """Scaled entry count per allocation."""
    footprint = get_benchmark(spec.benchmark).footprint_bytes * config.scale
    footprint = max(footprint, config.min_footprint_bytes)
    if config.role == ROLE_PROFILE:
        footprint *= config.profile_scale_factor
    total = int(footprint // MEMORY_ENTRY_BYTES)
    return [max(64, int(round(alloc.fraction * total))) for alloc in spec.allocations]


def dump_entries(benchmark: str, config: SnapshotConfig | None = None) -> int:
    """Memory-entries in each dump of a benchmark run under ``config``.

    Every dump of a run has the same allocations and sizes, so a run's
    stacked blocks are ``dump_entries * config.snapshots`` rows; the
    profiler preallocates its bulk buffer from this count.
    """
    config = config or SnapshotConfig()
    return sum(_entry_counts(data_spec(get_benchmark(benchmark).name), config))


def _effective_mix(
    alloc: AllocationSpec, spec: BenchmarkDataSpec, config: SnapshotConfig
) -> AllocationSpec:
    """Apply profile-role jitter to an allocation's mixes."""
    if config.role != ROLE_PROFILE or config.profile_jitter <= 0:
        return alloc
    rng = rng_lib.generator(
        f"{spec.benchmark}/{alloc.name}/profile-jitter", config.seed
    )

    def jitter(mix: ClassMix) -> ClassMix:
        probs = mix.as_array()
        noisy = probs * np.exp(
            rng.normal(0.0, config.profile_jitter, probs.size)
        )
        nonzero = noisy.sum()
        return ClassMix(*(noisy / nonzero))

    end = jitter(alloc.end_mix) if alloc.end_mix is not None else None
    return replace(alloc, mix=jitter(alloc.mix), end_mix=end)


def _base_latents(
    alloc: AllocationSpec, n: int, stream: str, seed: int
) -> np.ndarray:
    """Spatially arranged latent values in [0, 1)."""
    rng = rng_lib.generator(stream, seed)
    if alloc.layout == LAYOUT_UNIFORM:
        return rng.random(n)
    if alloc.layout == LAYOUT_BLOCKED:
        # Cap run lengths so even small (scaled or profile-role)
        # allocations contain enough independent blocks to sample
        # their class mix representatively.
        mean_run = max(1, min(alloc.block_run, n // 64))
        lengths = []
        covered = 0
        while covered < n:
            run = 1 + int(rng.geometric(1.0 / mean_run))
            lengths.append(run)
            covered += run
        # Stratified block values: the empirical block-class mix then
        # tracks the target mix with O(1/k) discrepancy instead of the
        # O(1/sqrt(k)) of i.i.d. draws, keeping the profile dataset
        # representative of the reference run at small scales.
        k = len(lengths)
        values = rng.permutation((np.arange(k) + rng.random(k)) / k)
        latents = np.repeat(values, lengths)[:n]
        # Per-entry speckle: scattered odd entries inside homogeneous
        # regions, as the Fig. 6 heatmaps show.
        speckle = rng.random(n) < _BLOCKED_SPECKLE
        latents[speckle] = rng.random(int(speckle.sum()))
        return latents
    if alloc.layout == LAYOUT_STRIPED:
        pattern = rng.random(alloc.stripe_period)
        repeats = -(-n // alloc.stripe_period)
        return np.tile(pattern, repeats)[:n]
    raise ValueError(f"unknown layout {alloc.layout!r}")


def _churn(
    latents: np.ndarray, alloc: AllocationSpec, stream: str, step: int, seed: int
) -> None:
    """Re-roll churn step ``step``'s share of ``latents`` in place."""
    if alloc.churn <= 0:
        return
    rng = rng_lib.generator(f"{stream}/churn/{step}", seed)
    mask = rng.random(latents.size) < alloc.churn
    count = int(mask.sum())
    if count:
        latents[mask] = rng.random(count)


def _classes_from_latents(latents: np.ndarray, mix: ClassMix) -> np.ndarray:
    """Map latents through the mix's inverse CDF to entry classes."""
    boundaries = np.cumsum(mix.as_array())
    boundaries[-1] = 1.0 + 1e-12  # guard against rounding at the top
    return np.searchsorted(boundaries, latents, side="right").astype(np.int64)


def generate_snapshot(
    benchmark: str,
    index: int,
    config: SnapshotConfig | None = None,
    previous: MemorySnapshot | None = None,
) -> MemorySnapshot:
    """Generate dump ``index`` (0-based) of a benchmark's run.

    Every call generates afresh; the content is a pure function of
    ``(benchmark, index, config)``.  Repeated work is avoided one
    level up: the sweep planner's stage 0 reduces each dump once into
    the stored profile and entry-state tensors
    (:mod:`repro.core.profiler`), which later stages read instead.

    Each dump's latents are the previous dump's after one churn step.
    Given ``previous`` (dump ``index - 1`` of the same run and
    ``config``, as :func:`generate_run` passes it), the latents carry
    forward from it; otherwise every step is replayed from the base
    latents.  Both give the same dump.
    """
    global _GENERATION_COUNT
    config = config or SnapshotConfig()
    if not 0 <= index < config.snapshots:
        raise ValueError(f"snapshot index {index} outside 0..{config.snapshots - 1}")
    spec = data_spec(get_benchmark(benchmark).name)
    if previous is not None and (previous.benchmark, previous.index) != (
        spec.benchmark,
        index - 1,
    ):
        raise ValueError(
            f"dump {index} of {spec.benchmark} cannot continue dump "
            f"{previous.index} of {previous.benchmark}"
        )
    _GENERATION_COUNT += 1
    counts = _entry_counts(spec, config)
    progress = index / max(config.snapshots - 1, 1)

    allocations = []
    for position, (alloc, n) in enumerate(zip(spec.allocations, counts)):
        effective = _effective_mix(alloc, spec, config)
        stream = f"{spec.benchmark}/{alloc.name}/{config.role}"
        if previous is None:
            latents = _base_latents(effective, n, f"{stream}/base", config.seed)
            steps = range(1, index + 1)
        else:
            latents = previous.allocations[position].latents.copy()
            steps = (index,)
        for step in steps:
            _churn(latents, effective, stream, step, config.seed)
        classes = _classes_from_latents(latents, effective.mix_at(progress))
        data_rng = rng_lib.generator(f"{stream}/data/{index}", config.seed)
        data = generate_entries(classes, data_rng)
        allocations.append(AllocationSnapshot(effective, classes, data, latents))
    return MemorySnapshot(spec.benchmark, index, progress, allocations)


#: Snapshots generated by this process.
_GENERATION_COUNT = 0


def generation_count() -> int:
    """Dumps generated by this process (every call counts).

    The profile/evaluate pipeline's "profile once" contract is
    asserted against this counter: a sweep over N design points must
    generate each dump of the profile and reference runs exactly once.
    """
    return _GENERATION_COUNT


def generate_run(
    benchmark: str, config: SnapshotConfig | None = None
):
    """Yield all dumps of a benchmark run, in order.

    Each dump continues the previous one's latents (one churn step
    each) instead of replaying every step from the base latents.
    """
    config = config or SnapshotConfig()
    snapshot = None
    for index in range(config.snapshots):
        snapshot = generate_snapshot(benchmark, index, config, snapshot)
        yield snapshot
