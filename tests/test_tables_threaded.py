"""Concurrent requests to the Schur and Schur_n recurrence tables."""

from __future__ import annotations

import random
import sys
import threading

from qschur import determinant, schur
from qschur.determinant import schur_finite
from qschur.schur import SchurKind, schur_D, schur_E
from qschur.series import ONE, LaurentPoly

REQUESTS = (
    [(schur_D, (k,)) for k in range(-2, 90)]
    + [(schur_E, (k,)) for k in range(-2, 90)]
    + [(schur_finite, (n, m)) for n in range(0, 60) for m in range(4)]
)


def _fresh_tables(monkeypatch) -> None:
    monkeypatch.setattr(
        schur,
        "_TABLES",
        {
            SchurKind.D: schur._SchurTable(LaurentPoly(), ONE),
            SchurKind.E: schur._SchurTable(ONE, LaurentPoly()),
        },
    )
    monkeypatch.setattr(determinant, "_finite_tables", {})


def _key(fn, args):
    return (fn.__name__, *args)


def test_interleaved_requests_match_a_serial_run(monkeypatch):
    _fresh_tables(monkeypatch)
    serial = {_key(fn, args): fn(*args) for fn, args in REQUESTS}

    _fresh_tables(monkeypatch)
    results: list[dict] = []
    errors: list[Exception] = []
    start = threading.Barrier(8)

    def worker(seed: int) -> None:
        order = list(REQUESTS)
        random.Random(seed).shuffle(order)
        got = {}
        try:
            start.wait(timeout=30)
            for fn, args in order:
                got[_key(fn, args)] = fn(*args)
        except Exception as exc:  # reported to the main thread below
            errors.append(exc)
        results.append(got)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(results) == 8
    for got in results:
        assert got == serial
