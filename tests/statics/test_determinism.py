"""determinism-lint: planted hazards in fixture modules."""

from __future__ import annotations

import pytest

from repro.statics.determinism import (
    EXTRA_SCOPE_EXEMPT,
    EXTRA_SCOPE_PACKAGES,
    SANCTIONED_ENV,
    DeterminismLintPass,
    determinism_scope,
    lint_module,
)
from tests.statics.fixtures import fixture_context

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


def _lint(tmp_path, source):
    ctx = fixture_context(
        tmp_path,
        {
            "src/fixpkg/__init__.py": "",
            "src/fixpkg/hazard.py": source,
        },
    )
    return lint_module(ctx, "fixpkg.hazard")


@pytest.fixture()
def findings(tmp_path):
    return _lint(tmp_path, _HAZARDS)


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


def test_clean_module_has_no_findings(tmp_path):
    assert _lint(tmp_path, _CLEAN) == []


def test_pass_scopes_to_configured_modules(tmp_path):
    ctx = fixture_context(
        tmp_path,
        {
            "src/fixpkg/__init__.py": "",
            "src/fixpkg/hazard.py": "import time\n\nNOW = time.time()\n",
            "src/fixpkg/other.py": "import time\n\nTHEN = time.time()\n",
        },
    )
    check = DeterminismLintPass(modules=["fixpkg.hazard"])
    findings = check.run(ctx)
    assert [f.rule for f in findings] == ["det-time"]
    assert findings[0].path == "src/fixpkg/hazard.py"


def test_sanctioned_list_is_the_documented_one():
    assert "REPRO_NO_EXT" in SANCTIONED_ENV
    assert "REPRO_CACHE_DIR" in SANCTIONED_ENV


def test_retired_snapshot_memo_knob_is_flagged(tmp_path):
    """The per-process snapshot memo is gone; a salted module that
    reads its old size knob again is an unsanctioned env read."""
    findings = _lint(
        tmp_path,
        "import os\n\n"
        'SIZE = int(os.environ.get("REPRO_SNAPSHOT_CACHE", "64"))\n',
    )
    assert [f.rule for f in findings] == ["det-env"]
    assert "REPRO_SNAPSHOT_CACHE" in findings[0].message


# ---------------------------------------------------------------------------
# The serve-package scope extension: the whole advisor service is
# linted (it answers digest-pinned requests from a long-running
# process), with exactly the batching-clock module exempt.
# ---------------------------------------------------------------------------
_SERVE_FIXTURE = {
    "src/fixpkg/__init__.py": "",
    "src/fixpkg/engine/__init__.py": "",
    "src/fixpkg/engine/registry.py": (
        "def register(experiment):\n    return experiment\n\n\n"
        "class Experiment:\n"
        "    def __init__(self, **kwargs):\n"
        "        self.__dict__.update(kwargs)\n"
    ),
    "src/fixpkg/engine/experiments.py": (
        "from fixpkg.engine.registry import Experiment, register\n"
        "\n"
        "\n"
        "def _point(point):\n"
        "    return point\n"
        "\n"
        "\n"
        "register(\n"
        "    Experiment(\n"
        '        name="demo.fig1",\n'
        "        run_point=_point,\n"
        "        salt_modules=(),\n"
        "    )\n"
        ")\n"
    ),
    "src/fixpkg/serve/__init__.py": "",
    # Planted violation: a wall-clock read OUTSIDE the clock module.
    "src/fixpkg/serve/service.py": (
        "import time\n\n\ndef window_deadline(delay):\n"
        "    return time.monotonic() + delay\n"
    ),
    # The sanctioned seam: same construct, exempt module.
    "src/fixpkg/serve/clock.py": (
        "import time\n\n\ndef now():\n    return time.monotonic()\n"
    ),
}


def test_serve_package_is_linted_with_the_clock_exempt(tmp_path):
    ctx = fixture_context(tmp_path, _SERVE_FIXTURE)
    scope = determinism_scope(ctx)
    assert "fixpkg.serve.service" in scope
    assert "fixpkg.serve" in scope
    assert "fixpkg.serve.clock" not in scope
    findings = DeterminismLintPass().run(ctx)
    assert [(f.rule, f.path) for f in findings] == [
        ("det-time", "src/fixpkg/serve/service.py")
    ]


def test_real_serve_package_scope_and_exemption():
    from repro.statics.framework import Context

    assert EXTRA_SCOPE_PACKAGES == ("repro.serve",)
    assert EXTRA_SCOPE_EXEMPT == ("repro.serve.clock",)
    scope = determinism_scope(Context.for_repo())
    assert "repro.serve.service" in scope
    assert "repro.serve.server" in scope
    assert "repro.serve.clock" not in scope
    # The experiment's declared salts stay in scope too.
    assert "repro.serve.advisor" in scope
    assert "repro.serve.protocol" in scope
