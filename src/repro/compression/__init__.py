"""Hardware memory-compression algorithms.

Buddy Compression uses Bit-Plane Compression (BPC, Kim et al. ISCA'16)
as its block codec; the paper notes it was chosen after comparing
several algorithms.  This package provides:

* :mod:`repro.compression.bpc` — the BPC codec used throughout the
  reproduction, with a bit-exact scalar encoder/decoder and a
  vectorised size-only path used for bulk snapshot analysis.
* :mod:`repro.compression.bdi`, :mod:`repro.compression.fpc`,
  :mod:`repro.compression.cpack` — the comparison algorithms, used by
  the algorithm-ablation bench.
* :mod:`repro.compression.sectors` — quantisation of compressed sizes
  to the paper's free-size set (Fig. 3) and to 32 B sectors (Buddy
  placement).
"""
