"""Concurrent requests to the recurrence tables and the Rogers-Ramanujan products."""

from __future__ import annotations

import random
import sys
import threading
import time

from qschur import schur
from qschur.determinant import schur_finite
from qschur.identities import rr_product_first, rr_product_second
from qschur.schur import CHECKPOINT_SPACING, RecurrenceTable, schur_D, schur_E
from qschur.series import _unpack

# D, E and the shifts 1..11 (shift 0 is D) are 13 tables, more than the
# registry keeps, so the threads also race on evicting and rebuilding them.
REQUESTS = (
    [(schur_D, (k,)) for k in range(-2, 90)]
    + [(schur_E, (k,)) for k in range(-2, 90)]
    + [(schur_finite, (n, m)) for n in range(0, 60) for m in range(12)]
)
PRODUCT_REQUESTS = [
    (fn, (order,))
    for fn in (rr_product_first, rr_product_second)
    for order in range(0, 600, 3)
]


def _key(fn, args):
    return (fn.__name__, *args)


def _run_threads(requests=REQUESTS, count: int = 8) -> list[dict]:
    """Each of ``count`` threads makes every request, in its own shuffled order."""
    results: list[dict] = []
    errors: list[Exception] = []
    start = threading.Barrier(count)

    def worker(seed: int) -> None:
        order = list(requests)
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
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(results) == count
    return results


def test_interleaved_requests_match_a_serial_run(fresh_tables):
    serial = {_key(fn, args): fn(*args) for fn, args in REQUESTS}

    fresh_tables()
    for got in _run_threads():
        assert got == serial


def test_first_reads_below_a_built_top_match_a_serial_run(fresh_tables, monkeypatch):
    """Every table is built to its top first (the registry keeps the last
    built), so the threads race on rebuilding entries from their checkpoints
    and on rebuilding evicted tables; each read unpacks its entry once, and
    every thread gets the values of a serial run."""
    serial = {_key(fn, args): fn(*args) for fn, args in REQUESTS}

    fresh_tables()
    for m in range(1, 12):
        schur_finite(59, m)
    schur_D(89)
    schur_E(89)
    unpacked = []

    def counting_unpack(value, length, w):
        unpacked.append(length)  # list.append is atomic
        return _unpack(value, length, w)

    monkeypatch.setattr(schur, "_unpack", counting_unpack)
    results = _run_threads()
    assert len(unpacked) == len(results) * len(REQUESTS)
    for got in results:
        assert got == serial


def test_reads_below_a_moving_top_match_a_serial_run(monkeypatch):
    """One thread extends a fresh table from 0 to 220 in steps of 5 while three
    others read the four entries below each top they see; it takes each step
    once a reader has seen the last.  Those reads walk down from the
    frontier snapshot each one takes under the lock, and every value equals
    a serial run's."""
    table = RecurrenceTable(0, 1, 8)
    serial = [table.entry(k) for k in range(221)]
    table = RecurrenceTable(0, 1, 8)
    built = threading.Event()
    start = threading.Barrier(4)
    seen: set[int] = set()  # tops a reader has started below
    read, wrong = [], []  # list.append is atomic
    errors: list[Exception] = []
    from_frontier = []
    walk = RecurrenceTable._walk

    def spy(self, a, b, j, k, w):
        if k < j and j % CHECKPOINT_SPACING:  # no checkpoint sits at j
            from_frontier.append(j)
        return walk(self, a, b, j, k, w)

    def extender() -> None:
        try:
            start.wait(timeout=30)
            for n in range(0, 221, 5):
                table.packed(n)
                deadline = time.monotonic() + 30
                while n not in seen and not errors and time.monotonic() < deadline:
                    time.sleep(0)
        except Exception as exc:  # reported to the main thread below
            errors.append(exc)
        built.set()

    def reader() -> None:
        top = None
        try:
            start.wait(timeout=30)
            while not built.is_set():
                if table._top == top:
                    time.sleep(0)
                    continue
                top = table._top
                seen.add(top)
                for k in range(max(top - 4, 0), top):
                    read.append(k)
                    if table.entry(k) != serial[k]:
                        wrong.append(k)
        except Exception as exc:
            errors.append(exc)

    monkeypatch.setattr(RecurrenceTable, "_walk", spy)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extender)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert table._top == 220 and seen >= set(range(0, 221, 5)) and from_frontier
    assert set(read) >= set(range(216, 220)) and not wrong, wrong


def test_interleaved_product_requests_match_a_serial_run(fresh_products):
    """Threads extend both coefficient lists while others slice them."""
    serial = {_key(fn, args): fn(*args) for fn, args in PRODUCT_REQUESTS}

    fresh_products()
    for got in _run_threads(PRODUCT_REQUESTS):
        assert got == serial
