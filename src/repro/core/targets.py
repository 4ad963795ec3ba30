"""Target-ratio selection policies.

Three design points from the paper's Fig. 7, in increasing refinement:

1. **Naive**: one conservative whole-program target ratio.
2. **Per-allocation**: the largest sector-aligned target whose
   overflow stays within the *Buddy Threshold* (Fig. 9 sweeps it;
   30 % is the final choice).
3. **Zero-page optimised** (the final design): additionally promotes
   allocations that are mostly-zero across the entire profiled run to
   the 16x class, subject to the 4x overall cap imposed by the
   buddy-memory carve-out size.

All policies are vectorised reductions over the columnar
:class:`~repro.core.profile_tensor.ProfileTensor` that return
target-axis indices, one per allocation
(:meth:`~repro.core.profile_tensor.ProfileTensor.selection_from_indices`
turns them into a name -> ratio selection);
:func:`select_per_allocation_indices` selects for a whole batch of
thresholds from one profile at once (the Fig. 9 sweep's hot path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.entry import ALLOWED_TARGETS, TargetRatio
from repro.core.profile_tensor import TARGET_INDEX, ProfileTensor
from repro.units import SECTORS_PER_ENTRY

#: The paper's default Buddy Threshold.
DEFAULT_THRESHOLD = 0.30

#: Guard on the naive whole-program choice: if more entries than this
#: would overflow, naive falls back to the next lower ratio (keeps the
#: single-target baseline from pathological 50 %+ buddy traffic on
#: bimodal programs such as 370.bt).
NAIVE_OVERFLOW_CAP = 0.35

#: Stability bound for the zero-page promotion: the allocation must
#: stay at least this zero across *every* profiled snapshot.
ZERO_PAGE_TOLERANCE = 0.03

#: Carve-out limit: buddy storage is 3x device memory, capping the
#: overall target compression ratio at 4x.
MAX_OVERALL_RATIO = 4.0

#: Target-axis indices of the sector-aligned targets, best-first.
_ALLOWED_INDICES = np.array(
    [TARGET_INDEX[target] for target in ALLOWED_TARGETS], dtype=np.intp
)

#: Sector cost of each bucket (bucket b holds entries of b+1 sectors).
_SECTOR_WEIGHTS = np.arange(1, SECTORS_PER_ENTRY + 1)

_X1_INDEX = TARGET_INDEX[TargetRatio.X1]
_X16_INDEX = TARGET_INDEX[TargetRatio.X16]


@dataclass(frozen=True)
class DesignPoint:
    """A named selection policy configuration (Fig. 7's x-axis)."""

    name: str
    per_allocation: bool
    zero_page: bool
    threshold: float = DEFAULT_THRESHOLD


#: Fig. 7's three design points.
NAIVE = DesignPoint("naive", per_allocation=False, zero_page=False)
PER_ALLOCATION = DesignPoint("per-allocation", per_allocation=True, zero_page=False)
FINAL = DesignPoint("final", per_allocation=True, zero_page=True)


def select_per_allocation_indices(
    tensor: ProfileTensor, thresholds: Sequence[float]
) -> np.ndarray:
    """``(len(thresholds), A)`` target indices for a threshold batch.

    For each threshold, each allocation gets the largest (best-first)
    sector-aligned target whose *worst-snapshot* overflow stays within
    it — the whole sweep reduced over one worst-overflow matrix.
    Overflow is judged against the worst profiled snapshot, not the
    run average: compressibility drifts over time (355.seismic) and
    the paper avoids that hazard by choosing conservative targets.
    """
    worst = tensor.worst_overflow[_ALLOWED_INDICES, :]  # (4, A) best-first
    thresholds_arr = np.asarray(thresholds, dtype=np.float64)
    ok = worst[None, :, :] <= thresholds_arr[:, None, None]  # (T, 4, A)
    first = np.argmax(ok, axis=1)  # first best-first target that fits
    chosen = _ALLOWED_INDICES[first]
    return np.where(ok.any(axis=1), chosen, _X1_INDEX)


def select_naive_indices(
    tensor: ProfileTensor, overflow_cap: float = NAIVE_OVERFLOW_CAP
) -> np.ndarray:
    """``(A,)`` indices of one conservative whole-program target.

    The target is the largest allowed ratio not exceeding the
    program's average compressibility (rounding the profiled mean
    down, as a conservative whole-program annotation would), subject
    to the overflow cap.
    """
    program = tensor.program_counts
    total = int(program.sum())
    mean_sectors = float(program @ _SECTOR_WEIGHTS) / total if total else 0.0
    chosen = TargetRatio.X1
    for target in ALLOWED_TARGETS:  # best-first: 4x, 2x, 1.33x, 1x
        if target.device_sectors < mean_sectors:
            continue  # more aggressive than the program average
        overflowing = int(program[target.device_sectors :].sum())
        if (overflowing / total if total else 0.0) <= overflow_cap:
            chosen = target
            break
    return np.full(tensor.allocation_count, TARGET_INDEX[chosen], dtype=np.intp)


def apply_zero_page_indices(
    indices: np.ndarray,
    tensor: ProfileTensor,
    tolerance: float = ZERO_PAGE_TOLERANCE,
    max_overall_ratio: float = MAX_OVERALL_RATIO,
) -> np.ndarray:
    """Promote stably mostly-zero allocations to the 16x class.

    Promotion is greedy, largest allocation first, and stops when the
    overall target ratio would exceed the carve-out limit.
    ``indices`` is one ``(A,)`` selection or a ``(K, A)`` batch; every
    row is promoted on its own, with one ratio pass over the batch per
    candidate allocation.
    """
    promoted = np.array(indices, dtype=np.intp)
    candidates = np.flatnonzero(
        tensor.worst_overflow[_X16_INDEX, :] <= tolerance
    )
    # Stable sort by descending fraction: ties keep allocation order,
    # exactly as the legacy ``sorted(..., key=lambda a: -a.fraction)``.
    order = candidates[
        np.argsort(-tensor.fractions[candidates], kind="stable")
    ]
    for position in order:
        trial = promoted.copy()
        trial[..., position] = _X16_INDEX
        fits = np.asarray(tensor.selection_ratio(trial) <= max_overall_ratio)
        promoted = np.where(fits[..., None], trial, promoted)
    return promoted


def select_indices(tensor: ProfileTensor, design: DesignPoint) -> np.ndarray:
    """Run a full design point's selection policy in index space."""
    if design.per_allocation:
        indices = select_per_allocation_indices(tensor, (design.threshold,))[0]
    else:
        indices = select_naive_indices(tensor)
    if design.zero_page:
        indices = apply_zero_page_indices(indices, tensor)
    return indices
