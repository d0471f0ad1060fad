"""Shared fixtures."""

import pytest


@pytest.fixture
def solver_calls(monkeypatch):
    """Record the window length of every call into the vector kernel's
    fixpoint solver (``fastpath_vec._solve``) made during the test."""
    from repro.timing import fastpath_vec

    calls = []
    original = fastpath_vec._solve

    def counting(p, cfg):
        calls.append(p["m"])
        return original(p, cfg)

    monkeypatch.setattr(fastpath_vec, "_solve", counting)
    return calls
