"""Tests for the finite Schur determinant, its oracle, and its limit forms."""

from __future__ import annotations

import json
from math import prod

import pytest

from qschur import packed, schur
from qschur.determinant import (
    DIRECT_ORACLE_MAX_N,
    TooLargeError,
    check_coefficient_recurrence,
    decompose,
    schur_coefficient,
    schur_finite,
    schur_finite_direct,
    schur_x1_series,
)
from qschur.reports import compare_polys, compare_series
from qschur.schur import RecurrenceTable, lambda_coeff, mu_coeff, schur_D, schur_E
from qschur.series import ONE, LaurentPoly, Q, monomial, poly_to_series

from .oracles import partitions_max_part, sum_side_coefficients


class TestSchurFinite:
    def test_base_cases(self):
        for m in range(6):
            assert schur_finite(0, m) == ONE

    def test_size_one(self):
        assert schur_finite(1, 3) == ONE + monomial(1, 4)

    def test_size_two_at_m_zero_equals_D2(self):
        assert schur_finite(2, 0) == LaurentPoly(0, (1, 1, 1))
        assert schur_finite(2, 0) == schur_D(2)

    def test_bottom_recursion(self):
        for m in range(0, 5):
            for n in range(2, 20):
                assert schur_finite(n, m) == schur_finite(
                    n - 1, m
                ) + monomial(1, n + m) * schur_finite(n - 2, m)

    def test_low_coefficients_stabilize(self):
        """Schur_n and Schur_{n-1} agree on all exponents <= n + m - 1."""
        for m in range(0, 4):
            for n in range(1, 25):
                a, b = schur_finite(n, m), schur_finite(n - 1, m)
                for e in range(n + m):
                    assert a.coefficient(e) == b.coefficient(e)

    def test_tables_are_bounded_least_recently_used_first(self, fresh_tables):
        """Reading ``N + 1`` tables, ``D`` and ``E`` among them, keeps ``N``;
        the table dropped is the one read longest ago, and reading it again
        rebuilds equal entries.  Keys are ``(X_{-2}, X_{-1}, shift)``."""
        cap = schur.TABLES_MAX
        assert cap >= 8
        d, e = (0, 1, 0), (1, 0, 0)
        first = [schur_finite(n, 0) for n in range(40)]  # shift 0 is D
        schur_E(5)
        for m in range(1, cap - 1):
            schur_finite(40, m)
        schur_D(3)  # D is now the most recently read, E the least
        schur_finite(40, cap - 1)
        shifts = [(0, 1, m) for m in range(1, cap - 1)]
        assert list(schur._tables) == [*shifts, d, (0, 1, cap - 1)]
        schur_finite(40, 1)
        schur_E(5)
        assert len(schur._tables) == cap
        assert (0, 1, 1) in schur._tables and (0, 1, 2) not in schur._tables
        assert e in schur._tables
        for m in range(100, 100 + cap):
            schur_finite(5, m)
        assert d not in schur._tables and e not in schur._tables
        again = [schur_D(n) for n in range(40)]
        assert again == first
        assert all(a is not b for a, b in zip(again, first))

    def test_shift_zero_is_the_D_table(self, fresh_tables, monkeypatch):
        """``Schur_n`` at ``m = 0`` and ``D_n`` are entries of one table,
        built once, whichever is read first; ``decompose`` adds only ``E``."""
        built = []
        init = RecurrenceTable.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(RecurrenceTable, "__init__", counting_init)
        for n in range(60):
            assert schur_finite(n, 0) == schur_D(n)
        assert schur._table(0, 1, 0) is schur._table(0, 1)
        assert decompose(59, 0).passed
        assert built == [(0, 1, 0), (1, 0, 0)]


class TestDirectOracle:
    def test_one_by_one(self):
        assert schur_finite_direct(0, 5) == ONE

    def test_two_by_two(self):
        assert schur_finite_direct(1, 0) == ONE + Q

    def test_three_by_three(self):
        assert schur_finite_direct(2, 1) == ONE + monomial(1, 2) + monomial(1, 3)

    def test_agrees_with_recursion(self):
        for m in range(0, 4):
            for n in range(0, 9):
                assert schur_finite_direct(n, m) == schur_finite(n, m)

    def test_bottom_recursion_on_direct_outputs(self):
        for m in range(0, 3):
            for n in range(2, 8):
                assert schur_finite_direct(n, m) == schur_finite_direct(
                    n - 1, m
                ) + monomial(1, n + m) * schur_finite_direct(n - 2, m)

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            schur_finite_direct(DIRECT_ORACLE_MAX_N + 1, 0)


class TestSchurCoefficient:
    def test_empty_product(self):
        assert schur_coefficient(0, 3, 7) == poly_to_series(ONE, 7)

    def test_n1_m0(self):
        s = schur_coefficient(1, 0, 4)
        assert [s.coefficient(e) for e in range(5)] == [0, 1, 1, 1, 1]

    def test_n2_m1(self):
        s = schur_coefficient(2, 1, 8)
        assert [s.coefficient(e) for e in range(9)] == [0, 0, 0, 0, 0, 0, 1, 1, 2]

    def test_matches_partition_oracle(self):
        """q^N in a_n counts partitions of N - n^2 - mn into parts <= n."""
        for n, m in ((1, 0), (3, 1), (5, 2)):
            s = schur_coefficient(n, m, 80)
            low = n * n + m * n
            want = [partitions_max_part(e - low, n) for e in range(81)]
            assert [s.coefficient(e) for e in range(81)] == want

    def test_lowest_exponent(self):
        for n, m in ((1, 0), (2, 3), (4, 1)):
            s = schur_coefficient(n, m, n * n + m * n + 5)
            assert s.min_exp == n * n + m * n
            assert s.coefficient(s.min_exp) == 1


class TestCoefficientRecurrence:
    def test_smallest_case(self):
        assert check_coefficient_recurrence(1, 0, 10).passed

    def test_deeper_case(self):
        assert check_coefficient_recurrence(3, 2, 30).passed

    def test_detector_sees_a_perturbation(self):
        """(1-q)*(a_1 + q^5) differs from q*a_0 first at exponent 5."""
        order = 10
        lhs_series = schur_coefficient(1, 0, order) + poly_to_series(
            monomial(1, 5), order
        )
        lhs = poly_to_series(ONE - Q, order) * lhs_series
        rhs = schur_coefficient(0, 0, order).times_poly(monomial(1, 1))
        report = compare_series(
            "perturbed", {"n": 1, "m": 0}, lhs, rhs, order
        )
        assert not report.passed
        assert report.mismatch is not None
        assert report.mismatch.exponent == 5
        assert (report.mismatch.lhs, report.mismatch.rhs) == (1, 0)


class TestSumSide:
    def test_m0_low_order(self):
        s = schur_x1_series(0, 4)
        assert [s.coefficient(e) for e in range(5)] == [1, 1, 1, 1, 2]

    def test_m1_low_order(self):
        s = schur_x1_series(1, 2)
        assert [s.coefficient(e) for e in range(3)] == [1, 0, 1]

    def test_order_zero(self):
        for m in range(5):
            assert schur_x1_series(m, 0) == poly_to_series(ONE, 0)

    def test_matches_partition_oracle(self):
        for m, order in ((0, 150), (1, 150), (2, 40), (3, 40), (5, 150), (8, 40)):
            s = schur_x1_series(m, order)
            want = sum_side_coefficients(m, order)
            assert [s.coefficient(e) for e in range(order + 1)] == want


class TestDecompose:
    def test_m_zero_collapses_to_D(self):
        for n in range(0, 12):
            assert decompose(n, 0).passed
            assert schur_finite(n, 0) == schur_D(n)

    def test_examples(self):
        assert decompose(3, 2).passed
        assert decompose(10, 5).passed
        assert decompose(140, 40).passed
        assert decompose(180, 40).passed

    def test_report_shape(self):
        report = decompose(3, 2)
        assert report.label == "decomposition"
        assert report.params == {"n": 3, "m": 2}
        assert report.status == "pass"

    @pytest.mark.parametrize("built", [300, None], ids=["narrowing", "widening"])
    def test_grid_at_either_table_width(self, built, fresh_tables, splits):
        """Shifts 0, 1 and 2 read the zero or constant entries ``D_{-2}``,
        ``E_{-1}`` and ``E_{-2}``.  Built to 300 first, ``D`` and ``E`` entries
        are narrowed as they are split into the product's half-width digits;
        read fresh, first widened (the ``Schur_n`` tables for ``m > 0`` are
        fresh in both runs)."""
        if built:
            schur_D(built)
            schur_E(built)
        for m in (0, 1, 2, 3, 4, 7, 12, 20, 40):
            for n in (0, 1, 2, 5, 33, 90):
                assert decompose(n, m).passed, (n, m)
        assert any(to < w if built else to > w for w, to in splits)

    @pytest.mark.parametrize(
        "n, m", [(1, 1), (4, 1), (2, 2), (9, 2), (30, 5), (140, 40)]
    )
    def test_wrong_shift_reports_the_laurent_mismatch(self, n, m, fresh_tables):
        """A ``Schur_n`` table built for shift ``m + 1`` fails with the report
        ``compare_polys`` gives on ``lambda D + mu E`` in Laurent arithmetic.

        Not at ``m = 0``: there the ``Schur_n`` table is ``D``'s, so a wrong
        one would be a wrong ``D`` on both sides."""
        wrong = schur._tables[(0, 1, m)] = RecurrenceTable(0, 1, m + 1)
        rhs = lambda_coeff(m) * schur_D(n + m) + mu_coeff(m) * schur_E(n + m)
        expected = compare_polys("decomposition", {"n": n, "m": m}, wrong.entry(n), rhs)
        report = decompose(n, m)
        assert not report.passed
        assert report == expected
        assert report.to_text() == expected.to_text()
        assert json.dumps(report.to_json_obj()) == json.dumps(expected.to_json_obj())

    @pytest.mark.parametrize("n, m", [(140, 40), (60, 20), (33, 2), (150, 8)])
    def test_near_miss_at_one_radix_is_caught(self, n, m, fresh_tables):
        """A wrong ``Schur_n``, the right one plus ``c q^k (q^2 - Y^2)`` for
        one radix ``t`` the check evaluates at, ``Y = 2^(8t)``, agrees with
        the right one at ``+-Y``, and still fails with the report
        ``compare_polys`` gives.

        Where several radices are taken, ``c = 1`` at a coefficient of at
        least ``Y^2`` keeps every coefficient nonnegative and below the
        table's bound, so the same radices are taken.  Where the one pair
        ``h`` is taken, ``Y^2 = 2^(16h)`` exceeds every coefficient, so ``c =
        -1`` below the top, and the bound, now above ``2^(16h)``, moves the
        check to other radices."""
        d, e, table = schur._table(0, 1), schur._table(1, 0), schur._table(0, 1, m)
        reads = ((e, m - 2), (d, n + m), (d, m - 2), (e, n + m))
        cross = [schur._read(*r) for r in reads]
        radices = schur._radices(*cross, schur._read(table, n))
        right = table.entry(n)
        t = radices[0]
        y2 = 1 << (16 * t)
        if len(radices) > 1:
            c, k = 1, right.coeffs.index(max(right.coeffs))
            assert right.coeffs[k] >= y2
        else:
            c, k = -1, right.degree - 2
        near = monomial(c, k) * (Q * Q - y2)
        for y in (1 << 8 * t, -(1 << 8 * t)):
            assert sum(cf * y**i for i, cf in enumerate(near.coeffs, k)) == 0
        wrong = right + near
        assert wrong.min_exp == 0 and min(wrong.coeffs) >= 0
        bound = max(table._sum(n), sum(wrong.coeffs))
        stub = _FixedEntry(table, n, wrong, bound)
        schur._tables[(0, 1, m)] = stub
        taken = schur._radices(*cross, schur._read(stub, n))
        assert (t in taken) == (len(radices) > 1)
        rhs = lambda_coeff(m) * schur_D(n + m) + mu_coeff(m) * schur_E(n + m)
        assert rhs == right
        expected = compare_polys("decomposition", {"n": n, "m": m}, wrong, rhs)
        report = decompose(n, m)
        assert not report.passed
        assert report == expected

    def test_radices_are_distinct_and_cover_the_bound(self, fresh_tables):
        """Over the grid above and the ``decompose`` and ``determinant
        --check`` sizes of the benchmark, the radices are distinct, at least
        1, and ``prod (2^(16t) - 1)`` exceeds ``M = max(S(A) S(B), S(C) S(D))
        + S(Schur_n)``; at ``m <= 8`` they are the one pair."""
        grid = [
            (n, m) for m in (0, 1, 2, 3, 4, 7, 12, 20, 40) for n in (0, 1, 2, 5, 33, 90)
        ]
        grid += [(n, m) for m in (20, 30, 40) for n in range(60, 141)]
        grid += [(n, m) for m in range(9) for n in range(100, 151)]
        d, e = schur._table(0, 1), schur._table(1, 0)
        counts = set()
        for n, m in grid:
            table = schur._table(0, 1, m)
            reads = ((e, m - 2), (d, n + m), (d, m - 2), (e, n + m), (table, n))
            entries = [schur._read(*r) for r in reads]
            radices = schur._radices(*entries)
            sa, sb, sc, sd, ss = (t._sum(k) for t, k in reads)
            bound = max(sa * sb, sc * sd) + ss
            assert len(set(radices)) == len(radices) and min(radices) >= 1, (n, m)
            assert prod((1 << 16 * t) - 1 for t in radices) > bound, (n, m)
            if m <= 8 and n >= 100:
                assert radices == [schur._half_width(*entries[:4], ss)], (n, m)
            counts.add(len(radices))
        assert {1, 2, 3} <= counts
        # S(Schur_n) carries M = 2^128 - 1 past the 127 bits of the products.
        def entry(digits: int, bound: int) -> tuple[bytes, int, int]:
            return packed.to_bytes(1 << 8 * 17 * (digits - 1), 17), 17, bound

        a, b, d = entry(400, 1), entry(8000, (1 << 127) - 1), entry(8000, 1)
        radices = schur._radices(a, b, (b"", 1, 0), d, entry(7000, 1 << 127))
        assert len(radices) > 1
        assert prod((1 << 16 * t) - 1 for t in radices) > (1 << 128) - 1


class _FixedEntry:
    """A table whose entry ``n`` is a given polynomial with nonnegative
    coefficients, bounded by ``bound``; every other entry is ``table``'s."""

    def __init__(self, table: RecurrenceTable, n: int, poly: LaurentPoly, bound: int):
        self._table, self._n, self._poly, self._bound = table, n, poly, bound

    def packed(self, k: int) -> tuple[int, int]:
        if k != self._n:
            return self._table.packed(k)
        w = packed.width(self._bound)
        return packed.pack(self._poly.coeffs, w), w

    def entry(self, k: int) -> LaurentPoly:
        return self._poly if k == self._n else self._table.entry(k)

    def _sum(self, k: int) -> int:
        return self._bound if k == self._n else self._table._sum(k)
