"""Experiment drivers.

One module per paper artefact; each produces plain dataclass results
that ``repro run`` prints and ``tests/test_paper_claims.py`` checks
against the claims ledger,
:data:`repro.analysis.paper_reference.CLAIMS`.
"""
