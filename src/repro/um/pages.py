"""LRU page residency priced by stack distance.

LRU has the inclusion property (Mattson et al., "Evaluation
techniques for storage hierarchies", IBM Systems Journal, 1970): a
reference misses at capacity C exactly when its *stack distance* —
the number of distinct other pages touched since its previous use —
is at least C, and a page's first use always misses.  One pass over a
stream therefore prices every capacity at once, where walking an LRU
set costs one pass per capacity.

The distances are computed without a per-access loop.  With ``p`` the
previous use of access ``i`` and ``next_j`` the next use of access
``j``, the distinct pages in ``(p, i)`` are the accesses there whose
next use lies beyond ``i``::

    d_i = distinct_before(i) - 1 - #{j <= p : next_j > i}

and the last term, a prefix "count greater than" query, is answered
for every access together by a wavelet matrix over ``next``: one
vectorised pass per bit of the stream length.
"""

from __future__ import annotations

import numpy as np


def _count_greater_in_prefix(
    values: np.ndarray, ends: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """``#{j < ends[q] : values[j] > thresholds[q]}`` for every query.

    ``values`` must be non-negative.  Each wavelet-matrix level
    stably partitions the sequence by one bit (most significant
    first); a query narrows its position range to the elements that
    share its threshold's bits so far, counting the range's ones
    wherever the threshold holds a zero.
    """
    largest = max(int(values.max(initial=0)), int(thresholds.max(initial=0)))
    current = values
    starts = np.zeros_like(ends)
    ends = ends.copy()
    counts = np.zeros_like(ends)
    for level in range(largest.bit_length() - 1, -1, -1):
        is_one = ((current >> level) & 1).astype(bool)
        zeros_before = np.zeros(current.size + 1, dtype=ends.dtype)
        np.cumsum(~is_one, out=zeros_before[1:])
        zeros = zeros_before[-1]
        zero_starts, zero_ends = zeros_before[starts], zeros_before[ends]
        take_ones = ((thresholds >> level) & 1).astype(bool)
        counts += np.where(
            take_ones, 0, (ends - starts) - (zero_ends - zero_starts)
        )
        starts = np.where(take_ones, zeros + starts - zero_starts, zero_starts)
        ends = np.where(take_ones, zeros + ends - zero_ends, zero_ends)
        current = current[np.argsort(is_one, kind="stable")]
    return counts


def lru_stack_distances(stream: np.ndarray) -> np.ndarray:
    """Per access, the LRU stack distance; -1 on a page's first use."""
    stream = np.asarray(stream)
    n = stream.size
    dtype = np.int32 if n < 2**31 - 1 else np.int64
    order = np.argsort(stream, kind="stable")
    repeat = stream[order[1:]] == stream[order[:-1]]
    later, earlier = order[1:][repeat], order[:-1][repeat]
    prev = np.full(n, -1, dtype=dtype)
    prev[later] = earlier
    following = np.full(n, n, dtype=dtype)
    following[earlier] = later

    distances = np.full(n, -1, dtype=dtype)
    reused = np.flatnonzero(prev >= 0).astype(dtype)
    first_use = prev < 0
    distinct_before = np.cumsum(first_use, dtype=dtype) - first_use
    distances[reused] = (
        distinct_before[reused]
        - 1
        - _count_greater_in_prefix(following, prev[reused] + 1, reused)
    )
    return distances


def lru_faults(stream: np.ndarray, capacities) -> list[int]:
    """Faults of an LRU set of each capacity (in pages) over ``stream``.

    Equal to walking a fresh LRU residency set of that capacity over
    the stream, for every capacity, from one stack-distance pass.
    """
    capacities = [int(capacity) for capacity in capacities]
    if any(capacity < 1 for capacity in capacities):
        raise ValueError("device must hold at least one page")
    stream = np.asarray(stream)
    # A back-to-back repeat hits at every capacity and leaves every
    # other access's distance unchanged, so only run starts need one.
    run_starts = np.ones(stream.size, dtype=bool)
    run_starts[1:] = stream[1:] != stream[:-1]
    distances = np.sort(lru_stack_distances(stream[run_starts]))
    first_uses = int(np.searchsorted(distances, 0))
    misses = distances.size - np.searchsorted(distances, capacities)
    return [first_uses + int(miss) for miss in misses]
