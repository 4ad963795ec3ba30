"""C-twin drift: the live twins agree, and every drift class is caught.

The mutation tests run :func:`compare_twins` over the *real* source
files with one planted edit, so they prove the check would catch the
corresponding real-world mistake (editing one twin and forgetting the
other).
"""

from __future__ import annotations

import re

import pytest

from .ctwin import (
    check_twins,
    compare_twins,
    parse_c_core,
    parse_py_core,
    parse_t_constants,
)
from .pragmas import REPO_ROOT, render, unsuppressed

_GPUSIM = REPO_ROOT / "src" / "repro" / "gpusim"


@pytest.fixture(scope="module")
def sources():
    return (
        (_GPUSIM / "_event_core.py").read_text(),
        (_GPUSIM / "_event_core_ext.c").read_text(),
        (_GPUSIM / "vector_sim.py").read_text(),
    )


def test_live_twins_have_no_drift(sources):
    assert compare_twins(*sources) == []


def test_parsers_extract_the_contract_anchors(sources):
    py_source, c_source, vector_sim_source = sources
    py = parse_py_core(py_source)
    c = parse_c_core(c_source)
    kinds = parse_t_constants(vector_sim_source)

    assert py.abi == c.abi
    assert set(py.groups) == {"A", "I", "F", "RI", "RF"}
    assert py.groups == c.enums
    assert len(py.groups["A"]) > 10  # the big array pack, not a stub
    assert set(kinds.values()) == py.recorded_kinds == c.written_kinds


def test_abi_bump_on_one_side_is_caught(sources):
    py_source, c_source, vector_sim_source = sources
    mutated = c_source.replace("#define EXT_ABI", "#define EXT_ABI 9 //", 1)
    findings = compare_twins(py_source, mutated, vector_sim_source)
    assert any(f.rule == "ctwin-abi" for f in findings)


def test_renamed_enum_slot_is_caught(sources):
    py_source, c_source, vector_sim_source = sources
    name = parse_c_core(c_source).enums["A"][0]
    mutated = re.sub(rf"\b{name}\b", f"{name}_RENAMED", c_source)
    findings = compare_twins(py_source, mutated, vector_sim_source)
    assert any(
        f.rule == "ctwin-layout" and "A_* pack" in f.message
        for f in findings
    )


def test_dropped_python_pack_slot_is_caught(sources):
    py_source, c_source, vector_sim_source = sources
    py = parse_py_core(py_source)
    first = py.groups["I"][0]
    slots = len(py.groups["I"])
    mutated = py_source.replace(f"{first},", "", 1)
    findings = compare_twins(mutated, c_source, vector_sim_source)
    assert any(
        f.rule == "ctwin-layout"
        and "I_* pack" in f.message
        and f"Python has {slots - 1} slots, C has {slots}" in f.message
        for f in findings
    )


def test_mutated_c_event_kind_is_caught(sources):
    py_source, c_source, vector_sim_source = sources
    # Retarget one tape write to an undeclared kind code.
    mutated = re.sub(r"(tk\[\w+\]\s*=\s*)8\b", r"\g<1>77", c_source, count=1)
    findings = compare_twins(py_source, mutated, vector_sim_source)
    rules = {f.rule for f in findings}
    assert rules == {"ctwin-kinds"}
    assert any("77" in f.message for f in findings)


def test_parsers_extract_the_replay_dispatch(sources):
    py_source, c_source, vector_sim_source = sources
    py = parse_py_core(py_source)
    c = parse_c_core(c_source)
    declared = set(parse_t_constants(vector_sim_source).values())
    # Each twin's one replay body covers all but the else-handled kind.
    for kinds in (py.replayed_kinds, c.dispatched_kinds):
        assert len(declared - kinds) == 1


@pytest.mark.parametrize("twin", ["python", "c"])
def test_dropped_dispatch_arm_in_replay_is_caught(sources, twin):
    py_source, c_source, vector_sim_source = sources
    # Retarget the one `kind == 5` arm: replay would silently misroute
    # one event class into a neighbouring arm.
    source = py_source if twin == "python" else c_source
    mutated, n = re.subn(r"kind\s*==\s*5\b", "kind == 4", source)
    assert n == 1
    if twin == "python":
        findings = compare_twins(mutated, c_source, vector_sim_source)
    else:
        findings = compare_twins(py_source, mutated, vector_sim_source)
    assert any(
        f.rule == "ctwin-kinds" and "never tests kind(s) [5, " in f.message
        for f in findings
    )


def test_dropped_t_constant_is_caught(sources):
    py_source, c_source, vector_sim_source = sources
    mutated = re.sub(
        r"_T_WARP_END\s*=\s*8", "_T_WARP_END_DISABLED = 80", vector_sim_source
    )
    findings = compare_twins(py_source, c_source, mutated)
    assert any(
        f.rule == "ctwin-kinds" and "[8]" in f.message for f in findings
    )


def test_missing_twin_files_are_reported(tmp_path):
    (tmp_path / "src/fixpkg/gpusim").mkdir(parents=True)
    findings = check_twins(tmp_path, "fixpkg")
    assert [f.path for f in findings] == [
        "src/fixpkg/gpusim/_event_core.py",
        "src/fixpkg/gpusim/_event_core_ext.c",
        "src/fixpkg/gpusim/vector_sim.py",
    ]
    assert {f.rule for f in findings} == {"ctwin-missing"}


def test_live_tree_twins_are_in_sync():
    findings = unsuppressed(REPO_ROOT, check_twins(REPO_ROOT))
    assert not findings, render(findings)
