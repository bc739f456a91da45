"""Shared fixtures."""

from __future__ import annotations

import pytest

from qschur import identities, packed, schur
from qschur.series import LaurentPoly


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
def cuts(monkeypatch):
    """``(entries, radices)``: every table entry cut into byte planes
    (``packed.cut``) during one test, as a ``LaurentPoly``, and the ``s`` of
    every evaluation of planes at ``+-2^(4s)`` (``packed.at_two_points``), in
    order."""
    entries, radices = [], []
    cut, at_two_points = packed.cut, packed.at_two_points

    def spy_cut(value, w, bound):
        entries.append(LaurentPoly(0, packed.unpack(value, packed.digits(value, w), w)))
        return cut(value, w, bound)

    def spy(planes, s):
        radices.append(s)
        return at_two_points(planes, s)

    monkeypatch.setattr(packed, "cut", spy_cut)
    monkeypatch.setattr(packed, "at_two_points", spy)
    return entries, radices


@pytest.fixture
def splits(monkeypatch):
    """``(w, to)`` of every evaluation of a product operand's byte planes
    (``packed.at_two_points`` at ``+-2^(4s)``) made during one test, in
    order: the planes were cut from digits packed at ``w`` bytes
    (``packed.cut``) and are written into ``to = s``-byte slots."""
    calls, widths = [], {}
    cut, at_two_points = packed.cut, packed.at_two_points

    def spy_cut(value, w, bound):
        planes = cut(value, w, bound)
        widths[id(planes)] = w
        return planes

    def spy(planes, s):
        calls.append((widths[id(planes)], s))
        return at_two_points(planes, s)

    monkeypatch.setattr(packed, "cut", spy_cut)
    monkeypatch.setattr(packed, "at_two_points", spy)
    return calls
