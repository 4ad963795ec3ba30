"""salt-completeness: planted violations in a fixture package."""

from __future__ import annotations

import pytest

from repro.statics.framework import Context, Severity
from repro.statics.imports import (
    DEFAULT_EXEMPT,
    is_transparent_init,
    module_imports,
    reachable,
    salt_relevant,
)
from repro.statics.salts import (
    SaltCompletenessPass,
    analyze_salts,
    function_imports,
    parse_registrations,
)
from tests.statics.fixtures import SALT_FIXTURE, fixture_context


@pytest.fixture()
def ctx(tmp_path):
    return fixture_context(tmp_path, SALT_FIXTURE)


def _by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def test_parse_registrations_folds_salt_constants(ctx):
    (registration,) = parse_registrations(ctx, "fixpkg.engine.experiments")
    assert registration.name == "demo.fig1"
    assert registration.salt_modules == (
        "fixpkg.good",
        "fixpkg.ghost",
        "fixpkg.unused",
    )
    assert registration.root_functions == ("_point", "_plan")


def test_function_imports_sees_lazy_study_imports(ctx):
    roots = function_imports(
        ctx, "fixpkg.engine.experiments", ("_point", "_plan")
    )
    assert set(roots) == {"fixpkg.study", "fixpkg.planner_helper"}


def test_module_imports_resolves_submodule_and_attribute_forms(ctx):
    imports = module_imports(ctx, "fixpkg.study")
    # `from fixpkg import helper` binds a submodule; `from
    # fixpkg.engine.cache import CACHE_FORMAT_VERSION` binds an
    # attribute and therefore depends on the module itself.
    assert set(imports) == {
        "fixpkg.helper",
        "fixpkg.engine.cache",
        "fixpkg.good",
        "fixpkg.sub",
    }


def test_transparent_init_detection(ctx):
    assert is_transparent_init(ctx, "fixpkg.sub")
    assert is_transparent_init(ctx, "fixpkg")
    assert not is_transparent_init(ctx, "fixpkg.good")


def test_reachability_traverses_through_transparent_inits(ctx):
    reach = reachable(ctx, ["fixpkg.study"], {"fixpkg.engine": "infra"})
    assert "fixpkg.sub.impl" in reach.chains
    assert reach.chain("fixpkg.sub.impl") == (
        "fixpkg.study -> fixpkg.sub -> fixpkg.sub.impl"
    )


def test_exempt_modules_are_boundaries(ctx):
    reach = reachable(ctx, ["fixpkg.study"], {"fixpkg.engine": "infra"})
    # Recorded (so dead-entry detection can see it) but not traversed.
    assert "fixpkg.engine.cache" in reach.chains
    assert "fixpkg.engine.registry" not in reach.chains


def test_planted_salt_violations_are_all_detected(ctx):
    findings = analyze_salts(ctx, "fixpkg.engine.experiments")

    missing = {f.message.split("'")[3] for f in _by_rule(findings, "salt-missing")}
    assert missing == {
        "fixpkg.study",
        "fixpkg.helper",
        "fixpkg.planner_helper",
        "fixpkg.sub.impl",
    }
    # The transparent __init__ and the exempt engine module are not
    # required; the declared-but-unreachable and declared-but-absent
    # entries get their own rules.
    assert "fixpkg.sub" not in missing
    assert "fixpkg.engine.cache" not in missing

    (dead,) = _by_rule(findings, "salt-dead")
    assert "fixpkg.unused" in dead.message
    assert dead.severity is Severity.WARNING

    (unknown,) = _by_rule(findings, "salt-unknown")
    assert "fixpkg.ghost" in unknown.message
    assert unknown.severity is Severity.ERROR


def test_missing_finding_carries_the_import_chain(ctx):
    findings = analyze_salts(ctx, "fixpkg.engine.experiments")
    (impl,) = [
        f
        for f in _by_rule(findings, "salt-missing")
        if "fixpkg.sub.impl" in f.message
    ]
    assert "fixpkg.study -> fixpkg.sub -> fixpkg.sub.impl" in impl.message
    assert impl.path == "src/fixpkg/engine/experiments.py"
    assert impl.line > 0


def test_pass_is_clean_once_salts_are_fixed(tmp_path):
    fixed = dict(SALT_FIXTURE)
    fixed["src/fixpkg/engine/experiments.py"] = SALT_FIXTURE[
        "src/fixpkg/engine/experiments.py"
    ].replace(
        '_BASE = ("fixpkg.good", "fixpkg.ghost")\n',
        '_BASE = (\n'
        '    "fixpkg.good",\n'
        '    "fixpkg.helper",\n'
        '    "fixpkg.planner_helper",\n'
        '    "fixpkg.study",\n'
        '    "fixpkg.sub.impl",\n'
        ")\n",
    ).replace(' + ("fixpkg.unused",)', "")
    ctx = fixture_context(tmp_path, fixed)
    assert (
        SaltCompletenessPass("fixpkg.engine.experiments").run(ctx) == []
    )


# ---------------------------------------------------------------------------
# The artifact salts outside the experiment registry: a recorded tape
# and a profile / entry-state tensor are keyed by their own salt
# tuples, which must cover every module that can shape their contents
# (a missing one replays a stale artifact under a fresh result key).
# ---------------------------------------------------------------------------
def _reached(roots):
    ctx = Context.for_repo()
    reach = reachable(ctx, roots, DEFAULT_EXEMPT)
    return salt_relevant(ctx, reach, DEFAULT_EXEMPT)


def test_tape_salt_covers_what_records_a_tape():
    """``record_tape`` lives in vector_sim, ``prepare_tape`` (which
    derives the recorded state) in perf_study."""
    from repro.gpusim.vector_sim import _TAPE_SALT_MODULES

    reached = _reached(["repro.gpusim.vector_sim", "repro.analysis.perf_study"])
    assert sorted(reached - set(_TAPE_SALT_MODULES)) == []


def test_tensor_salt_covers_what_builds_a_tensor():
    """The algorithm's own module is appended per key, so the default
    compressor's module is the one reached module left out."""
    from repro.compression.bpc import BPCCompressor
    from repro.core.profiler import _TENSOR_SALT_MODULES

    declared = set(_TENSOR_SALT_MODULES) | {BPCCompressor.__module__}
    assert sorted(_reached(["repro.core.profiler"]) - declared) == []
