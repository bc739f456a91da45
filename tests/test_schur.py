"""Tests for the Schur polynomial families D and E and derived quantities."""

from __future__ import annotations

import random
import tracemalloc
from functools import lru_cache
from math import ceil, comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qschur
from qschur import determinant, packed, schur
from qschur.determinant import decompose, schur_finite
from qschur.cli import main
from qschur.schur import (
    CHECKPOINT_SPACING,
    TABLE_BUDGET_BYTES,
    RecurrenceTable,
    SchurKind,
    TooLargeError,
    lambda_coeff,
    mu_coeff,
    schur_D,
    schur_E,
    schur_polynomial,
    wronskian,
)
from qschur.series import ONE, LaurentPoly, Q, monomial

from .oracles import recurrence_entries


class TestInitialValues:
    def test_D_initials(self):
        assert schur_D(0) == ONE
        assert schur_D(1) == ONE + Q

    def test_E_initials(self):
        assert schur_E(0) == ONE
        assert schur_E(1) == ONE

    def test_D_first_steps(self):
        assert schur_D(2) == LaurentPoly(0, (1, 1, 1))
        assert schur_D(3) == LaurentPoly(0, (1, 1, 1, 1, 1))

    def test_E_first_steps(self):
        assert schur_E(2) == LaurentPoly(0, (1, 0, 1))
        assert schur_E(3) == LaurentPoly(0, (1, 0, 1, 1))

    def test_backward_extension(self):
        assert schur_D(-1) == ONE
        assert schur_D(-2).is_zero()
        assert schur_E(-1).is_zero()
        assert schur_E(-2) == ONE

    def test_kind_dispatch(self):
        assert schur_polynomial(SchurKind.D, 2) == schur_D(2)
        assert schur_polynomial(SchurKind.E, 2) == schur_E(2)

    def test_index_below_extension_rejected(self):
        with pytest.raises(IndexError, match="must be >= -2, got -3"):
            schur_polynomial(SchurKind.D, -3)

    def test_bare_table_rejects_index_below_extension(self):
        table = RecurrenceTable(0, 1)
        for k in (-3, -4, -100):
            with pytest.raises(IndexError):
                table.entry(k)
        assert table.entry(-1) == ONE


class TestRecursion:
    def test_three_term_recursion_holds(self):
        for m in range(0, 61):
            for f in (schur_D, schur_E):
                assert f(m) == f(m - 1) + monomial(1, m) * f(m - 2)

    def test_constant_term_is_one(self):
        for m in range(0, 40):
            assert schur_D(m).coefficient(0) == 1
            assert schur_E(m).coefficient(0) == 1

    def test_degree_growth(self):
        # deg X_m = m + deg X_{m-2} once the shifted branch dominates.
        for m in range(3, 50):
            assert schur_D(m).degree == m + schur_D(m - 2).degree
            assert schur_E(m).degree == m + schur_E(m - 2).degree

    def test_degree_nondecreasing(self):
        for m in range(0, 60):
            assert schur_D(m + 1).degree >= schur_D(m).degree
            assert schur_E(m + 1).degree >= schur_E(m).degree


class TestStabilization:
    def test_low_coefficients_stop_changing(self):
        """X_m and X_{m-1} agree on all exponents <= m - 2."""
        for m in range(2, 40):
            for f in (schur_D, schur_E):
                a, b = f(m), f(m - 1)
                for e in range(m - 1):
                    assert a.coefficient(e) == b.coefficient(e)

    def test_difference_has_lowest_exponent_exactly_m(self):
        """X_m - X_{m-1} = q^m X_{m-2}, whose constant term is 1 for m >= 2."""
        for m in range(2, 40):
            for f in (schur_D, schur_E):
                diff = f(m) - f(m - 1)
                assert diff.min_exp == m
                assert diff.coefficient(m) == 1


class TestWronskian:
    def test_trivial_base(self):
        assert wronskian(0) == ONE

    def test_first_step(self):
        assert wronskian(1) == monomial(-1, 1)

    def test_frozen_value_m5(self):
        assert wronskian(5) == monomial(-1, 15)

    def test_closed_form(self):
        for m in range(0, 121):
            sign = 1 if m % 2 == 0 else -1
            assert wronskian(m) == monomial(sign, comb(m + 1, 2))


class TestLambdaMu:
    def test_lambda_examples(self):
        assert lambda_coeff(0) == ONE
        assert lambda_coeff(1).is_zero()
        assert lambda_coeff(2) == monomial(1, -1)

    def test_mu_examples(self):
        assert mu_coeff(0).is_zero()
        assert mu_coeff(1) == ONE
        assert mu_coeff(2) == monomial(-1, -1)
        assert mu_coeff(3) == monomial(1, -3) + monomial(1, -2)

    def test_quotient_forms(self):
        """The closed forms times the (signed) Wronskian recover the quotients.

        lambda * wronskian = q^m * E_{m-2} and mu * (-wronskian) = q^m * D_{m-2},
        so the closed forms equal the Cramer quotients without any division.
        """
        for m in range(0, 41):
            w = wronskian(m)
            assert lambda_coeff(m) * w == monomial(1, m) * schur_E(m - 2)
            assert mu_coeff(m) * (-w) == monomial(1, m) * schur_D(m - 2)

    def test_cramer_consistency(self):
        """lambda and mu solve the 2x2 system whose determinant is a Wronskian.

        The system is Schur_0 = lambda*D_m + mu*E_m = 1 and
        Schur_1 = lambda*D_{m+1} + mu*E_{m+1} = 1 + q^(1+m); its determinant
        is D_m*E_{m+1} - D_{m+1}*E_m = wronskian(m+1).  Cramer's rule gives
        lambda * wronskian(m+1) = E_{m+1} - (1+q^(1+m))*E_m and
        mu * wronskian(m+1) = (1+q^(1+m))*D_m - D_{m+1}.
        """
        for m in range(0, 41):
            top = ONE + monomial(1, 1 + m)
            w = wronskian(m + 1)
            assert lambda_coeff(m) * w == schur_E(m + 1) - top * schur_E(m)
            assert mu_coeff(m) * w == top * schur_D(m) - schur_D(m + 1)

    def test_defining_rows_of_decomposition(self):
        """The rows that pin lambda and mu: Schur_0 = 1, Schur_1 = 1+q^(1+m)."""
        for m in range(0, 41):
            lam, mu = lambda_coeff(m), mu_coeff(m)
            row0 = lam * schur_D(m) + mu * schur_E(m)
            row1 = lam * schur_D(m + 1) + mu * schur_E(m + 1)
            assert row0 == ONE
            assert row1 == ONE + monomial(1, 1 + m)


@lru_cache(maxsize=1)  # one table's worth: a kind through 220 is about 40 MB
def _oracle(kind: str, n: int) -> tuple[LaurentPoly, ...]:
    """``X_0 .. X_n`` for ``D``, ``E`` or ``Schur_n`` with shift ``m`` (``"S3"``)."""
    if kind == "D":
        return tuple(recurrence_entries(ONE, ONE + Q, 0, n))
    if kind == "E":
        return tuple(recurrence_entries(ONE, ONE, 0, n))
    m = int(kind[1:])
    return tuple(recurrence_entries(ONE, ONE + monomial(1, 1 + m), m, n))


def _read(kind: str, k: int) -> LaurentPoly:
    if kind == "D":
        return schur_D(k)
    if kind == "E":
        return schur_E(k)
    return schur_finite(k, int(kind[1:]))


def _table(kind: str) -> RecurrenceTable:
    """The registered table of ``kind``: its key is ``(X_{-2}, X_{-1}, shift)``."""
    key = {"D": (0, 1, 0), "E": (1, 0, 0)}.get(kind) or (0, 1, int(kind[1:]))
    return schur._tables[key]


KINDS = ["D", "E"] + [f"S{m}" for m in range(9)]


class TestRecurrenceTable:
    """The packed engine against plain LaurentPoly arithmetic."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_matches_oracle_in_any_read_order(self, kind, order, fresh_tables):
        """Through index 220 an ascending read walks the frontier across
        every width repack, and every other order rebuilds entries from
        checkpoints packed at several widths."""
        expected = _oracle(kind, 220)
        indices = list(range(221))
        if order == "descending":
            indices.reverse()
        elif order == "shuffled":
            random.Random(kind).shuffle(indices)
        for k in indices:
            assert _read(kind, k) == expected[k], (kind, k)

    @pytest.mark.parametrize("kind", ["D", "E", "S8"])
    def test_width_repack(self, kind, fresh_tables, monkeypatch):
        """Each of the reads at 20, 60 and 220 needs wider digits than the
        table has, so each widens the frontier pair once; every entry, at
        whatever width it was packed, still matches."""
        widened, widths = [], []
        rewidth = packed.rewidth

        def spy(value, w, to):
            if to > w:
                widened.append((w, to))
            return rewidth(value, w, to)

        monkeypatch.setattr(packed, "rewidth", spy)
        for k in (20, 60, 220):
            _read(kind, k)
            widths.append(_table(kind)._w)
        assert len(set(widths)) == 3 and widths == sorted(widths)  # three repacks
        assert len(widened) == 6 and {to for _w, to in widened} == set(widths)
        expected = _oracle(kind, 220)
        indices = list(range(221))
        random.Random(0).shuffle(indices)
        for k in indices:
            assert _read(kind, k) == expected[k], (kind, k)

    def test_ascending_reads_pack_each_checkpoint_at_its_own_width(self):
        """A repack widens the digits to what the request needs and no more,
        so reading ``D_-2 .. D_220`` one by one, each at the top, leaves the
        frontier at the top's width and no checkpoint; one read of ``D_0``
        then keeps every checkpoint, each at the width of its own segment."""
        table = RecurrenceTable(0, 1)
        for k in range(-2, 221):
            table.entry(k)
        assert not table._checkpoints
        assert table._w == table._width_through(220)
        assert table.entry(0) == _oracle("D", 220)[0]
        assert sorted(table._checkpoints) == list(range(0, 221, CHECKPOINT_SPACING))
        for j, (_a, _b, w) in table._checkpoints.items():
            assert w == table._width_through(j), j

    def test_coefficient_sums_are_fibonacci(self, fresh_tables):
        """At ``q = 1`` the recurrence is Fibonacci's: ``D_k(1) = F_{k+2}``,
        ``E_k(1) = F_{k+1}`` (with ``F_{-1} = 1``), and ``Schur_n(1) = F_{n+2}``
        for every shift; ``RecurrenceTable._sum`` gives the same sums unbuilt."""
        fib = [1, 0, 1]  # F_{-1}, F_0, F_1
        while len(fib) < 100:
            fib.append(fib[-1] + fib[-2])
        assert [sum(schur_D(k).coeffs) for k in range(-2, 90)] == fib[1:93]
        assert [sum(schur_E(k).coeffs) for k in range(-2, 90)] == fib[0:92]
        for m in range(9):
            assert [sum(schur_finite(n, m).coeffs) for n in range(90)] == fib[3:93]
        d, e, s = RecurrenceTable(0, 1), RecurrenceTable(1, 0), RecurrenceTable(0, 1, 7)
        assert [d._sum(k) for k in range(-2, 90)] == fib[1:93]
        assert [e._sum(k) for k in range(-2, 90)] == fib[0:92]
        assert [s._sum(n) for n in range(90)] == fib[3:93]
        assert d._top == e._top == s._top == -1

    def test_entries_unpack_only_when_read(self, fresh_tables, monkeypatch):
        """Building to ``D_150`` leaves every entry packed; each read, at the
        top or below it, unpacks that one entry once and returns an equal
        value, and the table keeps nothing but the frontier pair and the
        checkpoints the read below the top passed, all packed integers."""
        unpacked, unpack = [], packed.unpack

        def counting_unpack(value, length, w):
            unpacked.append(length)
            return unpack(value, length, w)

        table = schur._table(0, 1)
        table.packed(150)
        monkeypatch.setattr(packed, "unpack", counting_unpack)
        top = schur_D(150)
        assert len(unpacked) == 1
        assert schur_D(150) == top and len(unpacked) == 2
        assert not table._checkpoints
        low = schur_D(20)
        assert low == _oracle("D", 150)[20] and top == _oracle("D", 150)[150]
        assert len(unpacked) == 3
        assert schur_D(20) == low and len(unpacked) == 4
        assert set(vars(table)) == {
            "_initial", "_shift", "_w", "_top", "_frontier", "_checkpoints", "_lock"
        }
        assert sorted(table._checkpoints) == list(range(16, 150, CHECKPOINT_SPACING))
        held = [*table._frontier, *(x for t in table._checkpoints.values() for x in t)]
        assert all(type(x) is int for x in held)

    @pytest.mark.parametrize("kind", ["D", "E", "S3"])
    def test_built_table_holds_checkpoints_and_frontier_only(self, kind, fresh_tables):
        """Built through ``n`` by reads at the top, a table holds the frontier
        pair alone.  Reads below the top add at most one checkpoint pair per
        multiple of the spacing ``s`` below ``n``: at most ``2 ceil((n+3)/s)
        + 2`` packed values, however many entries are read.  Each
        checkpoint's width holds the coefficient sum of every entry up to the
        next checkpoint, which a read may walk to."""
        spacing = CHECKPOINT_SPACING
        assert spacing > 1  # fewer checkpoints than entries
        _read(kind, 0)
        sums = list(_table(kind)._initial)  # S_-2, S_-1, then S_k at k + 2
        while len(sums) < 220 + 2 * spacing:
            sums.append(sums[-1] + sums[-2])
        for n in [*range(0, 40), 150, 220]:
            _read(kind, n)
            table = _table(kind)
            assert not table._checkpoints and len(table._frontier) == 2, n
        for k in range(0, 221, 3):
            _read(kind, k)
        held = 2 * len(table._checkpoints) + len(table._frontier)
        assert len(table._checkpoints) == 220 // spacing + 1
        assert held <= 2 * ceil((220 + 3) / spacing) + 2
        for j, (_a, _b, w) in table._checkpoints.items():
            assert j % spacing == 0 and 0 <= j < 220, j
            top_sum = sums[j + spacing - 1 + 2]
            assert (top_sum.bit_length() + 8) // 8 <= w, j
        assert len(table._frontier) == 2

    def test_reads_at_the_top_hold_the_frontier_only(self, fresh_tables):
        """A fresh table read at its top keeps the frontier pair and no
        checkpoint: ``D``, ``E`` and ``Schur_n`` at shift 8 through 220, ``D``
        and ``E`` read by ``wronskian``, and ``D`` through 400, whose
        checkpoints every 16 entries would hold about 26 MB beside a 1.5 MB
        top entry."""
        for kind in ("D", "E", "S8"):
            _read(kind, 220)
            table = _table(kind)
            assert table._top == 220 and not table._checkpoints, kind
        fresh_tables()
        wronskian(120)  # reads D_119, D_120, then E_119, E_120
        assert not _table("D")._checkpoints and not _table("E")._checkpoints
        table = RecurrenceTable(0, 1)
        tracemalloc.start()
        try:
            value, _w = table.packed(400)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        top = (value.bit_length() + 7) // 8
        held = sum((x.bit_length() + 7) // 8 for x in table._frontier)
        assert not table._checkpoints and held <= 2 * top
        assert retained < 3 * top, (retained, top)

    def test_reads_below_the_top_keep_the_checkpoints_they_pass(
        self, fresh_tables, monkeypatch
    ):
        """A read walking down keeps every checkpoint it passes and walks on
        to the checkpoint at or below it only when that one is not held; a
        read next to held checkpoints keeps nothing.  Entries match the
        oracle throughout."""
        spacing = CHECKPOINT_SPACING
        table = RecurrenceTable(0, 1, 3)
        table.packed(220)
        walks = []
        walk = RecurrenceTable._walk

        def spy(self, a, b, j, k, w):
            walks.append((j, k))
            return walk(self, a, b, j, k, w)

        monkeypatch.setattr(RecurrenceTable, "_walk", spy)
        expected = _oracle("S3", 220)
        steps = []
        for k, held in [
            (100, range(96, 220, spacing)),  # down from the top, on to 96
            (90, range(80, 220, spacing)),  # down from 96, on to 80
            (93, range(80, 220, spacing)),  # down from 96; 80 is held
            (99, range(80, 220, spacing)),  # up from 96
            (5, range(0, 220, spacing)),  # down from 80, on to 0
        ]:
            walks.clear()
            assert table.entry(k) == expected[k], k
            assert sorted(table._checkpoints) == list(held), k
            steps.append(sum(abs(j - i) for j, i in walks))
        assert steps == [220 - 96, 96 - 80, 96 - 93, 99 - 96, 80]
        for j, (_a, _b, w) in table._checkpoints.items():
            assert w == table._width_through(j), j

    @pytest.mark.parametrize("kind", ["D", "E", "S8"])
    def test_reads_walk_at_most_half_the_spacing(self, kind, fresh_tables, monkeypatch):
        """Built to 220, a table read once at 0 keeps every checkpoint, each
        at its own segment's width, and then rebuilds each entry from the
        nearest pair it holds: up from the checkpoint at or below it, down
        from the checkpoint above it or down from the frontier.  All three
        occur, none takes more than half the spacing in steps, and the
        entries next to every checkpoint and the frontier match the oracle."""
        half = CHECKPOINT_SPACING // 2
        _read(kind, 220)
        table = _table(kind)
        top, checkpoints = table._top, range(0, 221, CHECKPOINT_SPACING)
        assert top % CHECKPOINT_SPACING  # the frontier is no checkpoint
        _read(kind, 0)
        assert sorted(table._checkpoints) == list(checkpoints)
        for j, (_a, _b, w) in table._checkpoints.items():
            assert w == table._width_through(j), j
        walks = []
        walk = RecurrenceTable._walk

        def spy(self, a, b, j, k, w):
            walks.append((j, k))
            return walk(self, a, b, j, k, w)

        monkeypatch.setattr(RecurrenceTable, "_walk", spy)
        edges = [k for j in checkpoints for k in (j - 1, j + half, j + half + 1)]
        edges = [k for k in (*edges, top - 1, top) if 0 <= k <= top]
        rest = [k for k in range(top + 1) if k not in edges]
        random.Random(kind).shuffle(rest)
        expected = _oracle(kind, 220)
        for k in [*edges, *rest]:
            assert _read(kind, k) == expected[k], (kind, k)
        assert len(walks) == len(edges) + len(rest)
        assert max(abs(k - j) for j, k in walks) <= half
        assert sorted(table._checkpoints) == list(checkpoints)
        up = {j for j, k in walks if k > j}
        down = {j for j, k in walks if k < j}
        assert up and up <= set(checkpoints)
        assert down & set(checkpoints) and top in down


@lru_cache(maxsize=1)
def _laurent_wronskians(top: int) -> tuple[LaurentPoly, ...]:
    """``D_{m-1} E_m - D_m E_{m-1}`` for ``m = 0..top`` in LaurentPoly arithmetic."""
    return tuple(
        schur_D(m - 1) * schur_E(m) - schur_D(m) * schur_E(m - 1)
        for m in range(top + 1)
    )


def _evaluate(coeffs: list[int], bits: int) -> int:
    """``sum(c_i 2^(bits i))`` by halves, any size and sign of ``c_i``."""
    if len(coeffs) <= 16:
        return sum(c << (bits * i) for i, c in enumerate(coeffs))
    mid = len(coeffs) // 2
    return _evaluate(coeffs[:mid], bits) + (_evaluate(coeffs[mid:], bits) << bits * mid)


def _two_point_values(p: LaurentPoly, h: int) -> tuple[int, int]:
    """``(P(X), P(-X))`` for ``X = 2^(8h)`` and a polynomial ``P``, from its
    coefficients directly."""
    assert p.min_exp >= 0
    signs = [(-1) ** (p.min_exp + i) for i in range(len(p.coeffs))]
    return tuple(
        _evaluate(list(coeffs), 8 * h) << (8 * h * p.min_exp)
        for coeffs in (p.coeffs, map(mul, p.coeffs, signs))
    )


class TestPackedProducts:
    """``wronskian`` and ``decompose`` multiply table entries in packed form."""

    @pytest.mark.parametrize("built", [300, None], ids=["narrowing", "widening"])
    def test_wronskian_matches_laurent_arithmetic(self, built, fresh_tables, splits):
        """Built to 300 first, the tables are read below their tops, from
        checkpoints packed at their own segments' widths: wider than the
        half-width digits of some products below ``m = 120``, whose splits
        narrow, and narrower than others'.  Read fresh in ascending order, at
        the frontier's width, they are narrower, and every split widens."""
        expected = _laurent_wronskians(120)
        fresh_tables()
        if built:
            schur_D(built)
            schur_E(built)
        for m in range(121):
            assert wronskian(m) == expected[m], m
            if m == 0:
                splits.clear()  # the constant D_{-1} is kept at one byte
        narrowed = {to < w for w, to in splits if to != w}
        assert narrowed == ({True, False} if built else {False})

    @pytest.mark.parametrize("built", [300, None], ids=["narrowing", "widening"])
    def test_cross_of_any_entries_matches_laurent_arithmetic(self, built):
        """``A B - C D`` over random entries of ``D``, ``E`` and a shifted
        table, whose coefficients, unlike a Wronskian's, are as large as the
        products': the width must hold them, not just the operands."""
        plain, tables = (
            [RecurrenceTable(0, 1), RecurrenceTable(1, 0), RecurrenceTable(0, 1, 5)]
            for _ in range(2)
        )
        for table in tables if built else ():
            table.packed(built)
        rng = random.Random(built)
        for _ in range(60):
            reads = [(rng.randrange(3), rng.randint(-2, 120)) for _ in range(4)]
            a, b, c, d = (plain[t].entry(k) for t, k in reads)
            entries = [schur._read(tables[t], k) for t, k in reads]
            h = schur._half_width(*entries)
            plus, minus = schur._packed_cross(*entries, h)
            assert _two_point_values(a * b - c * d, h) == (plus, minus), reads
            coeffs = packed.from_two_points(plus, minus, h)
            assert LaurentPoly(0, coeffs) == a * b - c * d, reads

    @pytest.mark.parametrize("parity", [0, 1], ids=["even-count", "odd-count"])
    @pytest.mark.parametrize("wider", [False, True], ids=["narrowing", "widening"])
    @settings(max_examples=100)
    @given(st.data())
    def test_even_odd_split_round_trip(self, parity, wider, data):
        """Nonnegative digits packed at ``w`` bytes split into their even- and
        odd-indexed digits at ``to`` bytes, narrower or wider, and interleave
        back; the empty list (zero) and a single digit included."""
        w = data.draw(st.integers(1, 23))
        to = data.draw(st.integers(w + 1, 24) if wider else st.integers(1, w))
        top = (1 << (8 * min(w, to) - 1)) - 1
        size = 2 * data.draw(st.integers(0, 20)) + parity
        digits = data.draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
        src = packed.to_bytes(packed.pack(digits, w), w)
        even, odd = packed.restride(src, w, to, 2)
        assert even == packed.pack(digits[0::2], to)
        assert odd == packed.pack(digits[1::2], to)
        back = [0] * len(digits)
        back[0::2] = packed.unpack(even, len(digits[0::2]), to)
        back[1::2] = packed.unpack(odd, len(digits[1::2]), to)
        assert back == digits

    @pytest.mark.parametrize("parity", [0, 1], ids=["even-count", "odd-count"])
    @pytest.mark.parametrize("top_sign", [-1, 1], ids=["negative-top", "positive-top"])
    @settings(max_examples=100)
    @given(st.data())
    def test_two_point_decode(self, parity, top_sign, data):
        """Signed coefficients inside the balanced ``2h``-byte range, the
        limits ``+-(2^(16h-1) - 1)`` and zero included, come back exactly from
        their values at ``+-2^(8h)`` as the direct sums give them; a negative
        top coefficient borrows from the digit above it."""
        h = data.draw(st.integers(1, 6))
        limit = (1 << (16 * h - 1)) - 1
        extremes = st.sampled_from([limit, -limit, 0])
        coeff = st.one_of(extremes, st.integers(-limit, limit))
        size = 2 * data.draw(st.integers(0, 15)) + parity
        coeffs = data.draw(st.lists(coeff, min_size=size, max_size=size))
        coeffs.append(top_sign * data.draw(st.integers(1, limit)))
        plus, minus = _two_point_values(LaurentPoly(0, coeffs), h)
        got = packed.from_two_points(plus, minus, h)
        assert got[: len(coeffs)] == coeffs and not any(got[len(coeffs) :])
        assert not any(packed.from_two_points(0, 0, h))

    def test_split_of_zero_and_a_single_digit(self):
        assert packed.to_bytes(0, 3) == b""
        assert packed.restride(b"", 3, 4, 2) == [0, 0]
        assert packed.restride(b"\x7f", 1, 2, 2) == [0x7F, 0]
        assert packed.at_two_points(b"\x7f", 1, 0x7F, 1) == (0x7F, 0x7F)

    def test_evaluation_against_direct_sums(self):
        """``packed.at_two_points`` against ``sum(c (+-2^(8t))^i)`` for digits packed
        at ``w`` bytes that take ``size`` of them, at ``2t`` narrower than,
        equal to and wider than ``size``, with ``2t`` dividing ``w`` and not;
        the zero operand, a single digit and odd and even counts included."""
        rng = random.Random(13)
        seen = set()
        for w in range(1, 8):
            for size in range(1, w + 1):
                bound = (1 << (8 * size - 1)) - 1  # its width is size bytes
                for count in range(6):
                    digits = [rng.randint(0, bound) for _ in range(count)]
                    src = packed.to_bytes(packed.pack(digits, w), w)
                    for t in range(1, w + 2):
                        y = 1 << (8 * t)
                        expected = tuple(
                            sum(c * x**i for i, c in enumerate(digits))
                            for x in (y, -y)
                        )
                        assert packed.at_two_points(src, w, bound, t) == expected
                        seen.add(("digits", min(count, 2 + count % 2)))
                        seen.add(("2t vs size", (2 * t > size) - (2 * t < size)))
                        seen.add(("2t divides w", w % (2 * t) == 0))
        assert seen == {
            *(("digits", k) for k in range(4)),
            *(("2t vs size", k) for k in (-1, 0, 1)),
            *(("2t divides w", k) for k in (False, True)),
        }

    def test_cross_against_laurent_arithmetic(self, fresh_tables):
        """``_packed_cross`` against ``A B - C D`` in ``LaurentPoly``
        arithmetic, at both points and read back, over reads where ``2h`` is
        the product width ``w`` and where it is ``w + 1``, every Wronskian
        (whose even or odd half is all zero), and zero factors ``D_{-2}`` and
        ``E_{-1}``."""
        d, e, s = schur._table(0, 1), schur._table(1, 0), schur._table(0, 1, 5)
        reads = [[(d, m - 1), (e, m), (d, m), (e, m - 1)] for m in range(0, 90)]
        reads += [
            [(e, m - 2), (d, n + m), (d, m - 2), (e, n + m)]
            for m in (0, 1, 2, 3, 9)
            for n in (0, 7, 40, 77)
        ]
        reads += [
            [(s, k), (d, k + 3), (e, 2 * k + 2), (s, k // 2)] for k in range(-2, 60, 3)
        ]
        reads += [
            [(d, -2), (e, 30), (e, -1), (d, 30)],
            [(e, -2), (d, -1), (e, -1), (d, -2)],
        ]
        widths, zero_halves = set(), set()
        for four in reads:
            a, b, c, dd = (t.entry(k) for t, k in four)
            expected = a * b - c * dd
            entries = [schur._read(t, k) for t, k in four]
            h = schur._half_width(*entries)
            plus, minus = schur._packed_cross(*entries, h)
            sums = [t._sum(k) for t, k in four]
            w = packed.width(max(sums[0] * sums[1], sums[2] * sums[3]))
            widths.add(2 * h - w)
            assert _two_point_values(expected, h) == (plus, minus), four
            coeffs = packed.from_two_points(plus, minus, h)
            assert LaurentPoly(0, coeffs) == expected, four
            if not expected.is_zero():
                zero_halves.add((plus + minus == 0, plus - minus == 0))
        assert widths == {0, 1}
        assert zero_halves == {(True, False), (False, True), (False, False)}

    @settings(max_examples=300)
    @given(st.integers(1, 8), st.integers(-5, 5), st.data())
    def test_signed_unpack_round_trip(self, w, low, data):
        """Balanced digits of either sign, a negative one below a positive top
        included, read back from the packed value alone."""
        half = 1 << (8 * w - 1)
        coeffs = data.draw(st.lists(st.integers(1 - half, half - 1), max_size=30))
        poly = LaurentPoly(low, packed.decode(packed.pack(coeffs, w), w))
        assert poly == LaurentPoly(low, coeffs)

    def test_no_laurent_product_on_a_pass(self, fresh_tables, monkeypatch):
        """Nothing is multiplied as a ``LaurentPoly``: ``wronskian`` unpacks
        the even and the odd half of its result, once each, and a passing
        ``decompose`` unpacks nothing."""
        unpacked, unpack = [], packed.unpack

        def refuse(self, other):
            raise AssertionError("LaurentPoly product")

        def counting_unpack(value, length, w):
            unpacked.append(length)
            return unpack(value, length, w)

        cases = [(0, 0), (9, 1), (20, 2), (140, 40)]
        schur_D(180)
        schur_E(180)
        for n, m in cases:
            schur_finite(n, m)
        monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
        monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
        monkeypatch.setattr(packed, "unpack", counting_unpack)
        assert wronskian(70) == LaurentPoly(comb(71, 2), (1,))
        assert len(unpacked) == 2
        for n, m in cases:
            assert decompose(n, m).passed
        assert len(unpacked) == 2

    def test_repeated_products_retain_nothing(self, fresh_tables):
        """After a warm-up like the long-lived library use, 50 products over
        entries not read before hold on to less than 1 MB.  The warm-up reads
        every table down to the lowest entry measured, as a first round does,
        so the checkpoints that first reads below a top keep are in place."""
        schur_D(200)
        schur_E(200)
        for m in range(40, 71, 2):
            wronskian(m)
        for m in (20, 30, 40):
            for n in range(140, 59, -16):
                decompose(n, m)
        calls = [(wronskian, (m,)) for m in range(41, 69, 2)]
        calls += [(decompose, (n, m)) for m in (20, 30, 40) for n in range(62, 140, 7)]
        assert len(calls) == 50
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for fn, args in calls:
                fn(*args)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20, grown

    @settings(max_examples=300)
    @given(st.integers(1, 24), st.integers(1, 24), st.data())
    def test_rewidth_round_trip(self, w, to, data):
        """Nonnegative digits below the sign bit of both widths, packed at ``w``
        bytes, repack to ``to`` bytes (narrower or wider) and back."""
        top = (1 << (8 * min(w, to) - 1)) - 1
        digits = data.draw(st.lists(st.integers(0, top), max_size=40))
        value = packed.pack(digits, w)
        there = packed.rewidth(value, w, to)
        assert there == packed.pack(digits, to)
        assert packed.unpack(there, len(digits), to) == digits
        assert packed.rewidth(there, to, w) == value


class TestTableBudget:
    @staticmethod
    def _bytes(entries: list[LaurentPoly], initial: list[LaurentPoly]) -> int:
        """Packed size of ``X_{-2} .. X_n`` from the polynomials themselves:
        one digit per exponent ``0 .. degree``, at the width ``X_n``'s
        coefficient sum needs, with a sign bit."""
        digits = sum(p.degree + 1 for p in [*initial, *entries] if not p.is_zero())
        width = (sum(entries[-1].coeffs).bit_length() + 8) // 8
        return digits * width

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 100, 150])
    def test_footprint_from_the_degree_and_sum_recurrences(self, n):
        zero = LaurentPoly()
        cases = [
            (RecurrenceTable(0, 1), _oracle("D", n), [zero, ONE]),
            (RecurrenceTable(1, 0), _oracle("E", n), [ONE, zero]),
            (RecurrenceTable(0, 1, 5), _oracle("S5", n), [zero, ONE]),
        ]
        for table, entries, initial in cases:
            assert table.footprint(n) == self._bytes(entries, initial)
            assert table._top == -1 and not table._checkpoints  # builds nothing

    def test_budget_boundary(self):
        """``D_400`` (about 189 MB packed) fits; ``D_500`` (462 MB) does not."""
        d = RecurrenceTable(0, 1)
        assert d.footprint(400) <= TABLE_BUDGET_BYTES < d.footprint(500)

    def test_huge_index_stops_early(self):
        """The scan for an index far past the budget stops within a few
        hundred steps instead of running to the index."""
        assert RecurrenceTable(0, 1).footprint(10**12) > TABLE_BUDGET_BYTES

    def test_over_budget_refused_before_building(self, fresh_tables):
        with pytest.raises(TooLargeError):
            schur_D(1000)
        with pytest.raises(TooLargeError):
            schur_finite(2000, 3)
        for table in (_table("D"), _table("S3")):
            assert table._top == -1 and not table._checkpoints
        assert schur_D(5) == _oracle("D", 5)[5]

    def test_refusal_set(self, capsys, fresh_tables):
        """``D_437`` is the first entry over budget, so ``verify`` refuses
        shift 439 up front: exit 2, nothing on stdout."""
        d = RecurrenceTable(0, 1)
        assert d.footprint(436) <= TABLE_BUDGET_BYTES < d.footprint(437)
        code = main(["verify", "--m-min", "439", "--m-max", "439", "--order", "5"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "index 437" in err

    def test_error_is_reexported(self):
        assert qschur.TooLargeError is TooLargeError
        assert determinant.TooLargeError is TooLargeError
