"""The docs cannot rot silently: tier-1 run of the docs-sync pass.

`repro.statics.docs_sync.check_docs` verifies that every relative link
in README and docs/ resolves, that documented `repro run` experiment
names are registered, and that digests quoted in the docs match the
values the golden tests pin.  Running it here means a doc-breaking
rename fails `pytest -x -q` locally, not just `repro check` in CI.
"""

from repro.statics.docs_sync import check_docs
from repro.statics.framework import Context


def test_docs_are_consistent():
    ctx = Context.for_repo()
    findings = [
        f"{finding.path}:{finding.line}: {finding.message}"
        for finding in check_docs(ctx)
    ]
    assert findings == []


def test_required_docs_exist():
    root = Context.for_repo().repo_root
    assert (root / "docs" / "architecture.md").is_file()
    assert (root / "docs" / "engines.md").is_file()
