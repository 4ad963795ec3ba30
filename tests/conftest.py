"""Fixtures shared across test modules."""

import pytest

from repro.workloads import traces as traces_mod


@pytest.fixture
def generations(monkeypatch):
    """Every ``generate_trace`` call of this process, as
    ``(benchmark, config)`` (serial runners only: a pool worker's
    calls are not seen)."""
    calls = []
    original = traces_mod.generate_trace

    def counting(benchmark, config=None):
        calls.append((benchmark, config))
        return original(benchmark, config)

    monkeypatch.setattr(traces_mod, "generate_trace", counting)
    return calls
