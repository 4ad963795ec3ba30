"""Helpers for building throwaway analysis fixtures on disk."""

from __future__ import annotations

from pathlib import Path

from repro.statics.framework import Context


def write_tree(root: Path, files: dict[str, str]) -> None:
    """Write ``{relative path: content}`` under ``root``."""
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)


def fixture_context(tmp_path: Path, files: dict[str, str], package: str = "fixpkg") -> Context:
    """A :class:`Context` over a fixture package written to ``tmp_path``."""
    write_tree(tmp_path, files)
    return Context(tmp_path, tmp_path / "src", package)

