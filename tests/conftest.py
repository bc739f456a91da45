"""Shared fixtures."""

from __future__ import annotations

import pytest

from qschur import identities, schur


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty table registry (D, E and every ``Schur_n``) for one test;
    returns a function that empties it again."""

    def reset() -> None:
        monkeypatch.setattr(schur, "_tables", {})

    reset()
    return reset


@pytest.fixture
def fresh_products(monkeypatch):
    """Empty coefficient lists for both Rogers-Ramanujan products for one
    test; returns a function that empties them again."""

    def reset() -> None:
        monkeypatch.setattr(identities, "_products", {1: [], 2: []})

    reset()
    return reset


@pytest.fixture
def splits(monkeypatch):
    """``(w, to)`` of every even/odd split of a product operand, its ``w``-byte
    digits copied to ``to`` bytes (``schur._restride`` at step 2), made
    during one test, in order."""
    calls = []
    restride = schur._restride

    def spy(value, w, to, step=1):
        if step == 2:
            calls.append((w, to))
        return restride(value, w, to, step)

    monkeypatch.setattr(schur, "_restride", spy)
    return calls
