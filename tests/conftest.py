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
def repacks(monkeypatch):
    """``(w, to)`` of every repack of a product operand (``schur._rewidth``)
    made during one test, in order."""
    calls = []
    rewidth = schur._rewidth

    def spy(value, w, to):
        calls.append((w, to))
        return rewidth(value, w, to)

    monkeypatch.setattr(schur, "_rewidth", spy)
    return calls
