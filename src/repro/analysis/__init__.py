"""Experiment drivers.

One module per paper artefact; each holds the per-point functions,
plans and dataclass results of its registered experiments
(:mod:`repro.engine.experiments`).  A figure is computed only by
running its experiment: ``repro run`` prints it, and
``tests/test_paper_claims.py`` checks its value against the claims
ledger, :data:`repro.analysis.paper_reference.CLAIMS`.  No module here
imports the runner.
"""
