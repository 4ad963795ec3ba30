"""The front-door rule: the live tree imports every name from the module
that defines it, and planted front-door imports are caught."""

from __future__ import annotations

from .fixtures import write_tree
from .front_door import front_door_findings
from .pragmas import REPO_ROOT, render, unsuppressed


def test_live_tree_imports_names_from_their_modules():
    findings = unsuppressed(REPO_ROOT, front_door_findings(REPO_ROOT))
    assert not findings, render(findings)


_FIXTURE = {
    "src/fixpkg/__init__.py": '"""Root."""\n',
    "src/fixpkg/rng.py": "",
    "src/fixpkg/core/__init__.py": '"""Core."""\n',
    "src/fixpkg/core/controller.py": "class Engine:\n    pass\n",
    "src/fixpkg/core/targets.py": "FINAL = 1\n",
    "src/fixpkg/study.py": (
        "from fixpkg import rng\n"
        "from fixpkg.core import targets\n"
        "from fixpkg.core.controller import Engine\n"
        "from fixpkg.core.targets import FINAL\n"
        "import fixpkg.core.controller\n"
        "\n"
        "\n"
        "def lazy():\n"
        "    from fixpkg import Engine\n"
        "    from fixpkg.core import targets, Engine\n"
        "    return Engine, targets\n"
    ),
    "src/fixpkg/core/relative.py": (
        "from . import targets\n"
        "from .controller import Engine\n"
        "from .. import rng\n"
        "from . import FINAL\n"
    ),
}


def test_front_door_imports_are_flagged(tmp_path):
    write_tree(tmp_path, _FIXTURE)
    findings = front_door_findings(tmp_path, "fixpkg")
    assert [str(f) for f in findings] == [
        "src/fixpkg/core/relative.py:4: front-door: FINAL is imported "
        "through the fixpkg.core package; import it from the module "
        "that defines it",
        "src/fixpkg/study.py:9: front-door: Engine is imported through "
        "the fixpkg package; import it from the module that defines it",
        "src/fixpkg/study.py:10: front-door: Engine is imported through "
        "the fixpkg.core package; import it from the module that "
        "defines it",
    ]


def test_pragma_suppresses_a_planted_front_door_import(tmp_path):
    write_tree(
        tmp_path,
        {
            "src/fixpkg/__init__.py": "",
            "src/fixpkg/core/__init__.py": "",
            "src/fixpkg/study.py": (
                "from fixpkg import core  # the package object itself\n"
                "# repro: allow[front-door] a planted exception\n"
                "from fixpkg import Engine\n"
            ),
        },
    )
    assert unsuppressed(tmp_path, front_door_findings(tmp_path, "fixpkg")) == []
