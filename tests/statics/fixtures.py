"""Helpers for building throwaway analysis fixtures on disk."""

from __future__ import annotations

from pathlib import Path


def write_tree(root: Path, files: dict[str, str]) -> None:
    """Write ``{relative path: content}`` under ``root``."""
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
