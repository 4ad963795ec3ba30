"""Hardware memory-compression algorithms.

Buddy Compression uses Bit-Plane Compression (BPC, Kim et al. ISCA'16)
as its block codec; the paper notes it was chosen after comparing
several algorithms.  Each codec is one vectorised size function,
:meth:`~repro.compression.base.CompressionAlgorithm.compressed_sizes`,
because an entry's placement depends on its compressed size alone.
This package provides:

* :mod:`repro.compression.bpc` — the BPC codec used throughout the
  reproduction.
* :mod:`repro.compression.bdi`, :mod:`repro.compression.fpc`,
  :mod:`repro.compression.cpack`, :mod:`repro.compression.zeroblock` —
  the comparison algorithms, which the advisor service and the
  algorithm-ablation claim test (``tests/test_paper_claims.py``) run.
* :mod:`repro.compression.sectors` — quantisation of compressed sizes
  to the paper's free-size set (Fig. 3) and to 32 B sectors (Buddy
  placement).

The per-entry reference every codec is checked against (for BPC, a
bit-exact encoder and decoder) is test code: ``tests/codec_oracle.py``.
"""
