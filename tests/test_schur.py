"""Tests for the Schur polynomial families D and E and derived quantities."""

from __future__ import annotations

from math import comb

import pytest

from qschur.schur import (
    SchurKind,
    lambda_coeff,
    mu_coeff,
    schur_D,
    schur_E,
    schur_polynomial,
    wronskian,
)
from qschur.series import ONE, LaurentPoly, Q, monomial


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
        with pytest.raises(IndexError):
            schur_polynomial(SchurKind.D, -3)


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
