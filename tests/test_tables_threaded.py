"""Concurrent requests to the recurrence tables and the Rogers-Ramanujan products."""

from __future__ import annotations

import random
import sys
import threading
import time

from qschur import identities, packed, schur
from qschur.determinant import decompose, schur_finite
from qschur.identities import rr_product_first, rr_product_second, verify_gis
from qschur.schur import (
    CHECKPOINT_SPACING,
    RecurrenceTable,
    schur_D,
    schur_E,
    wronskian,
)

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
# Tables and products share one lock, so these threads contend on both kinds
# of state at once.
MIXED_REQUESTS = (
    [(schur_D, (k,)) for k in range(0, 80, 7)]
    + [(schur_E, (k,)) for k in range(0, 80, 7)]
    + [(wronskian, (m,)) for m in range(0, 40, 4)]
    + [(decompose, (n, m)) for n in range(0, 40, 9) for m in range(0, 12, 3)]
    + [
        (fn, (order,))
        for fn in (rr_product_first, rr_product_second)
        for order in range(0, 400, 40)
    ]
    + [(verify_gis, (m, 60)) for m in range(11)]
)


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
    unpacked, unpack = [], packed.unpack

    def counting_unpack(value, length, w):
        unpacked.append(length)  # list.append is atomic
        return unpack(value, length, w)

    monkeypatch.setattr(packed, "unpack", counting_unpack)
    results = _run_threads()
    assert len(unpacked) == len(results) * len(REQUESTS)
    for got in results:
        assert got == serial


def test_first_reads_below_a_built_top_keep_each_checkpoint_once():
    """Eight threads make their first reads below the top of a table built to
    160, each in its own order.  Each checkpoint is stored once, and the
    checkpoints and entries equal a serial run's."""
    serial = RecurrenceTable(0, 1, 3)
    serial.packed(160)
    expected = {("entry", k): serial.entry(k) for k in range(161)}
    table = RecurrenceTable(0, 1, 3)
    table.packed(160)
    stores: list[int] = []

    class Checkpoints(dict):
        def __setitem__(self, j, pair):  # called under schur._lock
            stores.append(j)
            super().__setitem__(j, pair)

    table._checkpoints = Checkpoints()
    for got in _run_threads([(table.entry, (k,)) for k in range(161)]):
        assert got == expected
    assert sorted(stores) == list(range(0, 160, CHECKPOINT_SPACING))
    assert table._checkpoints == serial._checkpoints


def test_reads_below_a_moving_top_match_a_serial_run(monkeypatch):
    """One thread extends a fresh table from 0 to 220 in steps of 5 while three
    others read the four entries below each top they see; it takes each step
    once a reader has seen the last.  Those reads walk up, under the lock,
    from the constants or the checkpoint at or below them, keeping each
    checkpoint they pass, and every value equals a serial run's."""
    table = RecurrenceTable(0, 1, 8)
    serial = [table.entry(k) for k in range(221)]
    table = RecurrenceTable(0, 1, 8)
    built = threading.Event()
    start = threading.Barrier(4)
    seen: set[int] = set()  # tops a reader has started below
    read, wrong = [], []  # list.append is atomic
    errors: list[Exception] = []
    up_walks = []  # (j, k) of the walks of reads below the top
    walk = RecurrenceTable._walk

    def spy(self, a, b, j, k, w):
        if k < self._top:  # a build walks past its old top
            up_walks.append((j, k))
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
    assert table._top == 220 and seen >= set(range(0, 221, 5)) and up_walks
    assert set(read) >= set(range(216, 220)) and not wrong, wrong
    spacing = CHECKPOINT_SPACING
    assert all(j == -1 or j % spacing == 0 for j, _k in up_walks)
    assert all(0 <= k - j <= spacing for j, k in up_walks)
    assert sorted(table._checkpoints) == list(range(0, 209, spacing))


def test_interleaved_product_requests_match_a_serial_run(fresh_products):
    """Threads extend both coefficient lists while others slice them."""
    serial = {_key(fn, args): fn(*args) for fn, args in PRODUCT_REQUESTS}

    fresh_products()
    for got in _run_threads(PRODUCT_REQUESTS):
        assert got == serial


def test_tables_registry_and_products_change_under_the_lock(monkeypatch):
    """A build, a walk up onto a checkpoint, a walk up from a checkpoint,
    every registry store and every product append run with ``schur._lock``
    held."""
    held: list[tuple] = []  # (what, locked)
    walk, extend = RecurrenceTable._walk, RecurrenceTable._extend

    def spy_walk(self, a, b, j, k, w):
        held.append((("walk", j, k), schur._lock.locked()))
        return walk(self, a, b, j, k, w)

    def spy_extend(self, n):
        held.append((("extend", n), schur._lock.locked()))
        return extend(self, n)

    class Registry(dict):
        def __setitem__(self, key, table):
            held.append((("table", key), schur._lock.locked()))
            super().__setitem__(key, table)

    class Coefficients(list):
        def append(self, c):
            held.append((("append",), schur._lock.locked()))
            super().append(c)

    monkeypatch.setattr(RecurrenceTable, "_walk", spy_walk)
    monkeypatch.setattr(RecurrenceTable, "_extend", spy_extend)
    monkeypatch.setattr(schur, "_tables", Registry())
    monkeypatch.setattr(identities, "_products", {1: Coefficients(), 2: Coefficients()})
    schur_D(150)
    schur_D(20)  # walks up from the constants, keeping the checkpoints 0 and 16
    schur_D(17)  # walks up from the checkpoint at 16
    rr_product_first(300)
    seen = [what for what, _ in held]
    assert ("extend", 150) in seen and ("walk", 16, 17) in seen
    assert ("walk", 0, 16) in seen and ("table", ("D", 0)) in seen
    assert seen.count(("append",)) == 301
    assert all(locked for _, locked in held), held


def test_mixed_table_and_product_requests_match_a_serial_run(
    fresh_tables, fresh_products
):
    """Threads read D and E, take Wronskians and decompositions, extend and
    slice both products and verify the GIS identity, all in one shuffled
    list; every thread gets a serial run's results."""
    serial = {_key(fn, args): fn(*args) for fn, args in MIXED_REQUESTS}

    fresh_tables()
    fresh_products()
    for got in _run_threads(MIXED_REQUESTS):
        assert got == serial
