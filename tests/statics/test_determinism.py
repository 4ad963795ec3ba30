"""The determinism lint: the live tree is clean, and planted hazards
in fixture modules are caught."""

from __future__ import annotations

import pytest

from .determinism import (
    CLOCK_SEAM,
    SANCTIONED_ENV,
    determinism_scope,
    lint_source,
    lint_tree,
)
from .fixtures import write_tree
from .pragmas import REPO_ROOT, render, unsuppressed


def test_live_tree_is_deterministic():
    findings = unsuppressed(REPO_ROOT, lint_tree(REPO_ROOT))
    assert not findings, render(findings)


_HAZARDS = """\
import glob
import os
import random
import time
from datetime import datetime

import numpy as np


def set_iteration(rows):
    acc = 0
    for row in {1, 2, 3}:
        acc += row
    return acc + sum(x for x in frozenset(rows))


def materialised_set(rows):
    return list({r.name for r in rows})


def unsorted_listing(path):
    return [os.path.join(path, n) for n in os.listdir(path)]


def unsorted_glob(path):
    return glob.glob(path + "/*.json")


def wall_clock():
    return time.time() + datetime.now().timestamp()


def unseeded_random():
    return random.random() + np.random.rand()


def id_ordering(objects):
    return sorted(objects, key=id)


def env_read():
    return os.environ["FIXPKG_SECRET_AXIS"], os.getenv("ANOTHER_ONE")
"""

_CLEAN = """\
import os
import random

import numpy as np


def sorted_listing(path):
    return sorted(os.listdir(path))


def seeded_random(seed):
    return random.Random(seed).random() + np.random.default_rng(seed).random()


def sorted_set(rows):
    return sorted({r for r in rows})


def sanctioned_env():
    return os.environ.get("REPRO_NO_EXT"), os.getenv("REPRO_CACHE_DIR")
"""


def _lint(source):
    return lint_source(source, "src/fixpkg/hazard.py")


@pytest.fixture()
def findings():
    return _lint(_HAZARDS)


def _rules(findings):
    return [f.rule for f in findings]


def test_set_iteration_is_flagged(findings):
    assert _rules(findings).count("det-set-iter") == 3


def test_unsorted_directory_listings_are_flagged(findings):
    assert _rules(findings).count("det-unsorted-dir") == 2


def test_wall_clocks_are_flagged(findings):
    assert _rules(findings).count("det-time") == 2


def test_unseeded_randomness_is_flagged(findings):
    assert _rules(findings).count("det-random") == 2


def test_id_ordering_is_flagged(findings):
    assert _rules(findings).count("det-id-order") == 1


def test_unsanctioned_env_reads_are_flagged(findings):
    env = [f for f in findings if f.rule == "det-env"]
    assert len(env) == 2
    assert any("FIXPKG_SECRET_AXIS" in f.message for f in env)


def test_findings_point_at_real_lines(findings):
    lines = {f.line for f in findings}
    assert all(line > 0 for line in lines)
    assert len(lines) > 5  # spread over the file, not one anchor


def test_clean_module_has_no_findings():
    assert _lint(_CLEAN) == []


def test_lint_scopes_to_configured_modules(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/fixpkg/__init__.py": "",
            "src/fixpkg/hazard.py": "import time\n\nNOW = time.time()\n",
            "src/fixpkg/other.py": "import time\n\nTHEN = time.time()\n",
        },
    )
    findings = lint_tree(tmp_path, "fixpkg", modules=["fixpkg.hazard"])
    assert [f.rule for f in findings] == ["det-time"]
    assert findings[0].path == "src/fixpkg/hazard.py"


def test_sanctioned_list_is_the_documented_one():
    assert "REPRO_NO_EXT" in SANCTIONED_ENV
    assert "REPRO_CACHE_DIR" in SANCTIONED_ENV


def test_retired_snapshot_memo_knob_is_flagged():
    """The per-process snapshot memo is gone; a salted module that
    reads its old size knob again is an unsanctioned env read."""
    findings = _lint(
        "import os\n\n"
        'SIZE = int(os.environ.get("REPRO_SNAPSHOT_CACHE", "64"))\n',
    )
    assert [f.rule for f in findings] == ["det-env"]
    assert "REPRO_SNAPSHOT_CACHE" in findings[0].message


# ---------------------------------------------------------------------------
# The scope: every salt-relevant module of the package (package
# __init__ files included), reached by a salt today or not, minus the
# advisor's batching-clock seam.
# ---------------------------------------------------------------------------
_SCOPE_FIXTURE = {
    "src/fixpkg/__init__.py": "",
    "src/fixpkg/engine/__init__.py": "",
    # Exempt infrastructure: out of scope.
    "src/fixpkg/engine/cache.py": "import time\n\nNOW = time.time()\n",
    # Reached by no salt, yet salt-relevant: linted.
    "src/fixpkg/orphan.py": "import time\n\nTHEN = time.time()\n",
    "src/fixpkg/serve/__init__.py": "",
    "src/fixpkg/serve/service.py": (
        "import time\n\n\ndef window_deadline(delay):\n"
        "    return time.monotonic() + delay\n"
    ),
    # The sanctioned seam: same construct, exempt module.
    "src/fixpkg/serve/clock.py": (
        "import time\n\n\ndef now():\n    return time.monotonic()\n"
    ),
}


def test_scope_is_every_salt_relevant_module_but_the_clock(tmp_path):
    write_tree(tmp_path, _SCOPE_FIXTURE)
    assert determinism_scope(tmp_path, "fixpkg") == [
        "fixpkg",
        "fixpkg.orphan",
        "fixpkg.serve",
        "fixpkg.serve.service",
    ]
    findings = lint_tree(tmp_path, "fixpkg")
    assert [(f.rule, f.path) for f in findings] == [
        ("det-time", "src/fixpkg/orphan.py"),
        ("det-time", "src/fixpkg/serve/service.py"),
    ]


def test_real_scope_and_clock_seam():
    assert CLOCK_SEAM == "repro.serve.clock"
    scope = determinism_scope(REPO_ROOT)
    assert CLOCK_SEAM not in scope
    assert {
        "repro.serve.advisor",
        "repro.serve.protocol",
        "repro.serve.server",
        "repro.serve.service",
    } <= set(scope)
    assert not [m for m in scope if m.startswith("repro.engine")]


def test_pragma_suppresses_a_planted_hazard(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/fixpkg/__init__.py": "",
            "src/fixpkg/hazard.py": (
                "import time\n\n"
                "NOW = time.time()  # repro: allow[det-time] log stamp only\n"
                "\n"
                "THEN = time.time()\n"
            ),
        },
    )
    live = unsuppressed(tmp_path, lint_tree(tmp_path, "fixpkg"))
    assert [str(f) for f in live] == [
        "src/fixpkg/hazard.py:5: det-time: time.time() makes results "
        "depend on when they were computed"
    ]
