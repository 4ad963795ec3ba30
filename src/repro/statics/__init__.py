"""Static invariant analysis for the reproduction (``repro check``).

The reproduction's credibility rests on invariants that are otherwise
enforced only at runtime (golden digests, CI diff jobs):

* salt-relevant modules (every module a code salt could hash; see
  :mod:`repro.engine.salts`) must not contain nondeterminism hazards
  (unsorted directory listings, set iteration, wall clocks, unseeded
  RNGs, unsanctioned environment reads) that would break
  bit-identical digests;
* the hand-written C extension ``_event_core_ext.c`` must stay a
  faithful twin of ``_event_core.py`` — same ABI number, same event
  kinds, same array-pack layout.

:mod:`repro.statics` checks all of this *statically*, before any
simulation runs, via an AST pass framework (:mod:`.framework`) with
three production passes:

========================  ==================================================
pass                      rules
========================  ==================================================
``determinism-lint``      ``det-set-iter``, ``det-unsorted-dir``,
                          ``det-time``, ``det-random``, ``det-id-order``,
                          ``det-env``
``c-twin-drift``          ``ctwin-abi``, ``ctwin-layout``, ``ctwin-kinds``,
                          ``ctwin-missing``
``docs-sync``             ``docs-link``, ``docs-readme``,
                          ``docs-experiment``, ``docs-digest``
========================  ==================================================

Deliberate exceptions are expressed inline as
``# repro: allow[rule-id] reason`` pragmas (see
:func:`repro.statics.framework.parse_pragmas`); the framework itself
rejects reason-less pragmas (``statics-pragma``).

Run everything with ``repro check [--json] [--strict]``; see
``docs/statics.md`` for the full catalog and how to add a pass.
"""

from __future__ import annotations

from repro.statics.framework import (
    Context,
    Finding,
    Pass,
    Report,
    Severity,
    run_checks,
)

__all__ = [
    "Context",
    "Finding",
    "Pass",
    "Report",
    "Severity",
    "all_passes",
    "check_repo",
    "run_checks",
]


def all_passes() -> list:
    """The production passes, in report order."""
    from repro.statics.ctwin import CTwinDriftPass
    from repro.statics.determinism import DeterminismLintPass
    from repro.statics.docs_sync import DocsSyncPass

    return [
        DeterminismLintPass(),
        CTwinDriftPass(),
        DocsSyncPass(),
    ]


def check_repo(repo_root=None) -> Report:
    """Run every production pass against this repository's tree."""
    ctx = Context.for_repo(repo_root)
    return run_checks(ctx, all_passes())
