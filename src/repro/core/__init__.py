"""Buddy Compression — the paper's primary contribution.

The engine follows the paper's flow end to end:

1. :mod:`repro.core.profiler` runs the profiling pass over a smaller
   dataset (the paper: SpecAccel ``train``, DL small batch) and builds
   the columnar :class:`~repro.core.profile_tensor.ProfileTensor` of
   per-allocation compressed-size histograms.
2. :mod:`repro.core.targets` turns the tensor into per-allocation
   target compression ratios under a Buddy Threshold, including the
   naive whole-program baseline and the 16x zero-page promotion, as
   one target-axis index per allocation
   (:meth:`ProfileTensor.selection_from_indices` names them).
3. :mod:`repro.core.allocator` models the split device/buddy layout:
   GBBR-relative carve-out addressing with a fixed buddy slot per
   entry (the 4-bit-per-entry size metadata is :mod:`repro.units`).
4. :mod:`repro.core.metadata_cache` models the sliced metadata cache
   (Fig. 5b).
5. :mod:`repro.core.controller` ties it together: profile → annotate →
   place → measure compression ratio and buddy traffic on the
   reference run (Figs. 7, 8, 9).
"""
