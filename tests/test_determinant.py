"""Tests for the finite Schur determinant, its oracle, and its limit forms."""

from __future__ import annotations

import json
from math import prod
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import determinant, packed, schur
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
from qschur.identities import gis_rhs
from qschur.reports import compare_polys, compare_series
from qschur.schur import RecurrenceTable, lambda_coeff, mu_coeff, schur_D, schur_E
from qschur.schur import wronskian
from qschur.series import ONE, LaurentPoly, Q, QSeries, monomial, poly_to_series

from .oracles import partitions_max_part, sum_side_by_terms, sum_side_coefficients


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
        rebuilds equal entries.  Keys are ``(family, shift)``."""
        cap = schur.TABLES_MAX
        assert cap >= 8
        d, e = ("D", 0), ("E", 0)
        first = [schur_finite(n, 0) for n in range(40)]  # shift 0 is D
        schur_E(5)
        for m in range(1, cap - 1):
            schur_finite(40, m)
        schur_D(3)  # D is now the most recently read, E the least
        schur_finite(40, cap - 1)
        shifts = [("D", m) for m in range(1, cap - 1)]
        assert list(schur._tables) == [*shifts, d, ("D", cap - 1)]
        schur_finite(40, 1)
        schur_E(5)
        assert len(schur._tables) == cap
        assert ("D", 1) in schur._tables and ("D", 2) not in schur._tables
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
        assert schur._table("D", 0) is schur._table("D")
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

    def test_window_above_the_order_costs_nothing_per_factor(self):
        """``a_n`` whose lowest exponent lies above ``order`` is the zero
        series; its empty window is divided by each of the ``10^4`` factors
        at no cost per stride."""
        start = perf_counter()
        assert schur_coefficient(10**4, 0, 5) == QSeries.zero(5)
        assert perf_counter() - start < 0.5


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
        rhs = schur_coefficient(0, 0, order) * monomial(1, 1)
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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 60), st.integers(0, 800))
    def test_matches_term_by_term_sum(self, m, order):
        assert schur_x1_series(m, order) == sum_side_by_terms(m, order)

    @pytest.mark.parametrize("step", [-1, 0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 13])
    def test_orders_around_the_last_term(self, n, m, step):
        """At ``order = n^2 + mn`` the term ``a_n`` has just come in: one
        below, ``a_{n-1}`` is the last term; one above, ``a_n`` has two
        coefficients."""
        order = n * n + m * n + step
        assert schur_x1_series(m, order) == sum_side_by_terms(m, order)

    @pytest.mark.parametrize("order", [0, 1, 10])
    @pytest.mark.parametrize("m", [100, 200, 438])
    def test_large_shifts(self, m, order):
        """Only ``a_0 = 1`` is below the truncation."""
        assert schur_x1_series(m, order) == sum_side_by_terms(m, order)


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
        are narrowed as they are split into the product's ``s``-byte slots;
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
        wrong = schur._tables[("D", m)] = RecurrenceTable(0, 1, m + 1)
        rhs = lambda_coeff(m) * schur_D(n + m) + mu_coeff(m) * schur_E(n + m)
        expected = compare_polys("decomposition", {"n": n, "m": m}, wrong.entry(n), rhs)
        report = decompose(n, m)
        assert not report.passed
        assert report == expected
        assert report.to_text() == expected.to_text()
        assert json.dumps(report.to_json_obj()) == json.dumps(expected.to_json_obj())

    @pytest.mark.parametrize(
        "n, m", [(140, 40), (60, 20), (33, 2), (150, 8), (100, 14), (100, 16)]
    )
    def test_near_miss_at_one_radix_is_caught(self, n, m, fresh_tables):
        """A wrong ``Schur_n``, the right one plus ``c q^k (q^2 - Y^2)`` for
        one radix ``s`` the check evaluates at, ``Y = 2^(4s)``, agrees with
        the right one at ``+-Y``, and still fails with the report
        ``compare_polys`` gives.

        Where several radices are taken, ``c = 1`` at a coefficient of at
        least ``Y^2`` keeps every coefficient nonnegative and below the
        table's bound, so the same radices are taken.  Where the one pair
        ``w`` is taken, ``Y^2 = 2^(8w)`` exceeds every coefficient, so ``c =
        -1`` below the top, and the bound, now above ``2^(8w)``, moves the
        check to other radices."""
        d, e, table = schur._table("D"), schur._table("E"), schur._table("D", m)
        reads = ((e, m - 2), (d, n + m), (d, m - 2), (e, n + m))
        cross = [schur._read(*r) for r in reads]
        radices = schur._radices(*cross, schur._read(table, n))
        right = table.entry(n)
        s = radices[0]
        y2 = 1 << (8 * s)
        if len(radices) > 1:
            c, k = 1, right.coeffs.index(max(right.coeffs))
            assert right.coeffs[k] >= y2
        else:
            c, k = -1, right.degree - 2
        near = monomial(c, k) * (Q * Q - y2)
        for y in (1 << 4 * s, -(1 << 4 * s)):
            assert sum(cf * y**i for i, cf in enumerate(near.coeffs, k)) == 0
        wrong = right + near
        assert wrong.min_exp == 0 and min(wrong.coeffs) >= 0
        bound = max(table._sum(n), sum(wrong.coeffs))
        stub = _FixedEntry(table, n, wrong, bound)
        schur._tables[("D", m)] = stub
        taken = schur._radices(*cross, schur._read(stub, n))
        assert (s in taken) == (len(radices) > 1)
        rhs = lambda_coeff(m) * schur_D(n + m) + mu_coeff(m) * schur_E(n + m)
        assert rhs == right
        expected = compare_polys("decomposition", {"n": n, "m": m}, wrong, rhs)
        report = decompose(n, m)
        assert not report.passed
        assert report == expected

    @pytest.mark.parametrize("off", [0, 1], ids=["right", "wrong-shift"])
    @pytest.mark.parametrize("n, m", [(4, 1), (30, 5), (140, 40)])
    def test_failure_report_shares_no_code_with_the_packed_check(
        self, n, m, off, fresh_tables, monkeypatch
    ):
        """The packed check answers only pass or fail.  Forced to fail, it is
        followed by neither a packed product nor a two-point decode: the
        report is ``compare_polys`` of ``Schur_n`` against ``lambda D + mu E``
        in Laurent arithmetic, a pass when the tables are right."""
        wrong = RecurrenceTable(0, 1, m + 1)
        if off:
            schur._tables[("D", m)] = wrong
        assert determinant._decomposition(n, m) is not off
        calls = []
        for module, name in ((schur, "_packed_cross"), (packed, "from_two_points")):
            monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        monkeypatch.setattr(determinant, "_decomposition", lambda n, m: False)
        report = decompose(n, m)
        assert calls == []
        lhs = wrong.entry(n) if off else schur_finite(n, m)
        rhs = lambda_coeff(m) * schur_D(n + m) + mu_coeff(m) * schur_E(n + m)
        assert report == compare_polys("decomposition", {"n": n, "m": m}, lhs, rhs)
        assert report.passed is not off

    @pytest.mark.parametrize("n, m, count", [(140, 40, 5), (130, 30, 5), (150, 8, 1)])
    def test_each_entry_is_cut_once_whatever_the_radices(
        self, n, m, count, fresh_tables, cuts
    ):
        """``_decomposition`` cuts each of its five entries into byte planes
        once per call, and evaluates every set of planes once at each of its
        ``count`` radices."""
        entries, radices = cuts
        assert determinant._decomposition(n, m)
        cross = [schur_E(m - 2), schur_D(m - 2), schur_D(n + m), schur_E(n + m)]
        assert entries == [*cross, schur_finite(n, m)]
        assert len(set(radices)) == count
        assert {radices.count(s) for s in radices} == {5}

    def test_radices_are_distinct_and_cover_the_bound(self, fresh_tables):
        """Over the grid above and the ``decompose`` and ``determinant
        --check`` sizes of the benchmark, the radices are distinct, at least
        1, and ``prod (2^(8s) - 1)`` exceeds ``M = max(S(A) S(B), S(C) S(D))
        + S(Schur_n)``; at ``m <= 8`` they are the one pair.

        Every shape takes one of the rule's two cases: the one pair ``w`` of
        :func:`schur._pair_width` exactly when ``A = E_{m-2}`` at radix ``w``
        is under ``KARATSUBA_CUTOFF`` limbs, otherwise the largest ``k`` with
        ``k (k + 1) / 2 <= need`` most nearly equal radices summing to
        ``need``.  Shifts 9 to 19 hold shapes on both sides of the cutoff:
        at ``n = 90`` the one pair is taken through ``m = 14``, and at ``n =
        140`` through ``m = 12``."""
        grid = [
            (n, m) for m in (0, 1, 2, 3, 4, 7, 12, 20, 40) for n in (0, 1, 2, 5, 33, 90)
        ]
        grid += [(n, m) for m in (20, 30, 40) for n in range(60, 141)]
        grid += [(n, m) for m in range(9) for n in range(100, 151)]
        grid += [(n, m) for m in range(9, 20) for n in (0, 1, 2, 5, 33, 90, 140)]
        d, e = schur._table("D"), schur._table("E")
        counts, cases = set(), set()
        for n, m in grid:
            table = schur._table("D", m)
            reads = ((e, m - 2), (d, n + m), (d, m - 2), (e, n + m), (table, n))
            entries = [schur._read(*r) for r in reads]
            radices = schur._radices(*entries)
            sa, sb, sc, sd, ss = (t._sum(k) for t, k in reads)
            bound = max(sa * sb, sc * sd) + ss
            assert len(set(radices)) == len(radices) and min(radices) >= 1, (n, m)
            assert prod((1 << 8 * s) - 1 for s in radices) > bound, (n, m)
            w = schur._pair_width(*entries[:4], ss)
            if m <= 8 and n >= 100:
                assert radices == [w], (n, m)
            digits = entries[0][1]  # of A = E_{m-2}
            if digits * w * 4 < schur.KARATSUBA_CUTOFF * 30:
                assert radices == [w], (n, m)
            else:
                need = (bound.bit_length() + 8) // 8
                k = max(k for k in range(1, need + 1) if k * (k + 1) // 2 <= need)
                assert len(radices) == k and sum(radices) == need, (n, m)
                assert max(radices) - min(radices) <= k, (n, m)
            cases.add((m, len(radices) > 1))
            counts.add(len(radices))
        assert {1, 3, 4, 5} <= counts
        assert {(14, False), (15, True), (12, False), (13, True)} <= cases
        # S(Schur_n) carries M = 2^128 - 1 past the 127 bits of the products.
        def entry(digits: int, bound: int) -> schur._Entry:
            return packed.cut(1 << 8 * 17 * (digits - 1), 17, bound), digits, bound

        a, b, d = entry(400, 1), entry(8000, (1 << 127) - 1), entry(8000, 1)
        zero = packed.cut(0, 1, 0), 0, 0
        radices = schur._radices(a, b, zero, d, entry(7000, 1 << 127))
        assert len(radices) > 1
        assert prod((1 << 8 * s) - 1 for s in radices) > (1 << 128) - 1


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


@pytest.mark.parametrize(
    "function, args, error",
    [
        (schur_finite, (-1, 0), ValueError),
        (schur_finite, (0, -1), ValueError),
        (schur_finite_direct, (-1, 0), ValueError),
        (schur_finite_direct, (0, -1), ValueError),
        (schur_coefficient, (-1, 0, 5), ValueError),
        (schur_coefficient, (0, -1, 5), ValueError),
        (check_coefficient_recurrence, (0, 0, 5), ValueError),
        (schur_x1_series, (-1, 5), ValueError),
        (schur_x1_series, (0, -1), ValueError),
        (decompose, (-1, 0), ValueError),
        (decompose, (0, -1), ValueError),
        (gis_rhs, (-1, 5), ValueError),
        (gis_rhs, (0, -1), ValueError),
        (wronskian, (-1,), IndexError),
        (lambda_coeff, (-1,), IndexError),
        (mu_coeff, (-1,), IndexError),
    ],
    ids=lambda x: x.__name__ if callable(x) else str(x),
)
def test_out_of_range_arguments_are_refused_before_any_table(
    function, args, error, fresh_tables
):
    """Each library function refuses an argument below its range with its own
    exception type, exactly, and registers no table first."""
    with pytest.raises(error) as excinfo:
        function(*args)
    assert type(excinfo.value) is error
    assert schur._tables == {}
