"""Unit tests for exact Laurent polynomial and truncated series arithmetic."""

from __future__ import annotations

import operator
from math import comb

import pytest

from qschur.series import (
    ONE,
    Q,
    LaurentPoly,
    OrderTooHighError,
    QSeries,
    monomial,
    poly_first_mismatch,
    poly_to_series,
    series_first_mismatch,
)

from .oracles import NotInvertibleError, poly_pow, poly_shifted, series_inverse


def P(min_exp: int, *coeffs: int) -> LaurentPoly:
    return LaurentPoly(min_exp, coeffs)


class TestLaurentPolyNormalization:
    def test_strips_leading_and_trailing_zeros(self):
        p = LaurentPoly(-2, (0, 3, 1, 0, 0))
        assert p.min_exp == -1
        assert p.coeffs == (3, 1)

    def test_zero_is_canonical(self):
        assert LaurentPoly(5, (0, 0)) == LaurentPoly()
        assert LaurentPoly().min_exp == 0
        assert LaurentPoly().coeffs == ()
        assert LaurentPoly().is_zero()

    def test_equal_values_compare_equal(self):
        assert LaurentPoly(0, (0, 1)) == LaurentPoly(1, (1,))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ONE.min_exp = 3  # type: ignore[misc]


class TestMonomial:
    def test_multiplicative_identity(self):
        assert monomial(1, 0) == ONE

    def test_negative_cube(self):
        m = monomial(-1, 3)
        assert m.min_exp == 3 and m.coeffs == (-1,)
        assert str(m) == "-q^3"

    def test_negative_exponent_allowed(self):
        m = monomial(1, -1)
        assert m.min_exp == -1 and m.coeffs == (1,)

    def test_zero_coefficient_gives_zero(self):
        assert monomial(0, 7).is_zero()


class TestPolyAdd:
    def test_cancellation(self):
        assert (ONE + Q) + monomial(-1, 0) == Q

    def test_additive_identity(self):
        assert (ONE + Q) + LaurentPoly() == ONE + Q

    def test_disjoint_supports(self):
        s = monomial(1, -1) + Q
        assert s.coefficient(-1) == 1
        assert s.coefficient(0) == 0
        assert s.coefficient(1) == 1

    def test_int_coercion(self):
        assert ONE + 1 == monomial(2, 0)
        assert 1 + Q == ONE + Q
        assert (ONE + Q) - 1 == Q
        assert 1 - Q == ONE - Q


class TestPolyMul:
    def test_difference_of_squares(self):
        assert (ONE + Q) * (ONE - Q) == ONE - monomial(1, 2)

    def test_annihilator(self):
        assert ((ONE + Q) * LaurentPoly()).is_zero()

    def test_inverse_monomials(self):
        assert monomial(1, -1) * Q == ONE

    def test_scalar_multiplication(self):
        assert (ONE + Q) * 3 == P(0, 3, 3)
        assert 0 * (ONE + Q) == LaurentPoly()

    def test_power(self):
        assert poly_pow(ONE + Q, 2) == P(0, 1, 2, 1)
        assert poly_pow(ONE + Q, 0) == ONE
        assert poly_pow(ONE + Q, 40).coeffs == tuple(comb(40, i) for i in range(41))
        with pytest.raises(ValueError):
            poly_pow(ONE + Q, -1)

    def test_shifted(self):
        assert poly_shifted(ONE + Q, 2) == P(2, 1, 1)
        assert poly_shifted(ONE + Q, 2) == monomial(1, 2) * (ONE + Q)
        assert poly_shifted(LaurentPoly(), 5).is_zero()


class TestPolyQueries:
    def test_degree_and_coefficient(self):
        p = P(-1, 2, 0, 5)
        assert p.degree == 1
        assert p.min_exp == -1
        assert p.coefficient(-1) == 2
        assert p.coefficient(0) == 0
        assert p.coefficient(1) == 5
        assert p.coefficient(99) == 0

    def test_first_mismatch(self):
        assert poly_first_mismatch(ONE + Q, ONE + Q) is None
        assert poly_first_mismatch(ONE + Q, ONE + 2 * Q) == (1, 1, 2)
        assert poly_first_mismatch(ONE, ONE + monomial(1, 3)) == (3, 0, 1)


class TestPolyFormatting:
    def test_sum_notation(self):
        assert str(P(0, 1, 1, 2)) == "1 + q + 2q^2"
        assert str(P(-1, 1)) == "q^-1"
        assert str(P(1, -1)) == "-q"
        assert str(LaurentPoly()) == "0"
        assert str(P(0, 1, 0, -3)) == "1 - 3q^2"


class TestSeriesConstruction:
    def test_truncation_drops_high_terms(self):
        s = poly_to_series(ONE + Q + monomial(1, 5), 3)
        assert s.order == 3
        assert [s.coefficient(e) for e in range(4)] == [1, 1, 0, 0]

    def test_zero_series(self):
        s = poly_to_series(LaurentPoly(), 10)
        assert s.is_zero()
        assert s.order == 10
        assert s.min_exp == 11
        assert s == QSeries.zero(10)

    def test_negative_exponent_window(self):
        s = poly_to_series(monomial(1, -1), 0)
        assert s.min_exp == -1
        assert s.coefficient(-1) == 1
        assert s.coefficient(0) == 0

    def test_window_length_must_match(self):
        with pytest.raises(ValueError):
            QSeries(3, 0, (1, 1))

    def test_leading_zeros_stripped(self):
        s = QSeries(3, 0, (0, 0, 1, 2))
        assert s.min_exp == 2
        assert s.coeffs == (1, 2)

    def test_coefficient_above_order_raises(self):
        s = QSeries.one(4)
        with pytest.raises(OrderTooHighError):
            s.coefficient(5)

    def test_coefficient_below_min_exp_is_zero(self):
        s = poly_to_series(Q, 4)
        assert s.coefficient(0) == 0
        assert s.coefficient(-7) == 0


class TestSeriesAdd:
    def test_order_is_min(self):
        a = poly_to_series(ONE + Q, 5)
        b = poly_to_series(monomial(1, 2), 3)
        s = a + b
        assert s.order == 3
        assert [s.coefficient(e) for e in range(4)] == [1, 1, 1, 0]

    def test_zero_of_high_order_is_neutral(self):
        a = poly_to_series(ONE + Q, 5)
        assert a + QSeries.zero(10**6) == a

    def test_cancellation_to_zero(self):
        a = poly_to_series(monomial(1, -1), 2)
        s = a + (-a)
        assert s.is_zero()
        assert s.order == 2

    def test_subtraction(self):
        a = poly_to_series(ONE + Q, 5)
        assert (a - a).is_zero()


class TestSeriesMul:
    def test_truncated_product(self):
        a = poly_to_series(P(0, 1, 1, 1), 2)
        b = poly_to_series(ONE - Q, 2)
        s = a * b
        assert s.order == 2
        assert s == QSeries.one(2)

    def test_inverse_pair(self):
        geom = series_inverse(poly_to_series(ONE - Q, 6))
        s = geom * poly_to_series(ONE - Q, 6)
        assert s == QSeries.one(6)

    def test_order_rule_with_min_exp_shift(self):
        # An unknown q^6 tail in either operand first pollutes exponent
        # 6 + 2 = 8, so 7 is the largest sound order.
        a = poly_to_series(monomial(1, 2), 5)
        b = poly_to_series(monomial(1, 3), 5)
        s = a * b
        assert s.order == min(5 + 3, 5 + 2) == 7
        assert s.min_exp == 5
        assert s.coefficient(5) == 1

    def test_scalar_and_poly_dispatch(self):
        a = poly_to_series(ONE + Q, 4)
        assert (a * 2).coefficient(1) == 2
        assert (a * 0).is_zero()
        shifted = a * monomial(1, 3)
        assert shifted.order == 7
        assert shifted.coefficient(3) == 1

    def test_poly_product_is_exact_in_order(self):
        a = QSeries.one(4)
        s = a * monomial(1, -2)
        assert s.order == 2
        assert s.coefficient(-2) == 1

    def test_times_zero_poly(self):
        a = QSeries.one(4)
        assert (a * LaurentPoly()).is_zero()


class TestSeriesInverse:
    def test_geometric_series(self):
        s = series_inverse(poly_to_series(ONE - Q, 4))
        assert [s.coefficient(e) for e in range(5)] == [1, 1, 1, 1, 1]

    def test_identity(self):
        assert series_inverse(QSeries.one(7)) == QSeries.one(7)

    def test_geometric_in_q5(self):
        s = series_inverse(poly_to_series(ONE - monomial(1, 5), 11))
        assert [s.coefficient(e) for e in range(12)] == [
            1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0,
        ]

    def test_unit_negative_one(self):
        s = series_inverse(poly_to_series(-ONE + Q, 4))
        prod = s * poly_to_series(-ONE + Q, 4)
        assert prod == QSeries.one(4)

    def test_shifted_unit(self):
        a = poly_to_series(Q + monomial(1, 2), 5)
        inv = series_inverse(a)
        assert inv.min_exp == -1
        assert inv.order == 3
        assert a * inv == QSeries.one(4)

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            series_inverse(QSeries.zero(5))

    def test_non_unit_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            series_inverse(poly_to_series(2 * ONE + Q, 5))


class TestSeriesMismatch:
    def test_agreement(self):
        a = poly_to_series(ONE + Q, 5)
        assert series_first_mismatch(a, a, 5) is None

    def test_first_difference_reported(self):
        a = poly_to_series(ONE + Q, 1)
        b = poly_to_series(ONE + 2 * Q, 1)
        assert series_first_mismatch(a, b, 1) == (1, 1, 2)

    def test_mismatch_above_up_to_invisible(self):
        a = QSeries.one(2)
        b = poly_to_series(ONE + monomial(1, 3), 2)
        assert series_first_mismatch(a, b, 2) is None

    def test_up_to_beyond_order_raises(self):
        with pytest.raises(OrderTooHighError):
            series_first_mismatch(QSeries.one(2), QSeries.one(9), 3)


@pytest.mark.parametrize(
    "left, op",
    [
        (ONE + Q, operator.add),
        (ONE + Q, operator.sub),
        (QSeries.one(3), operator.add),
        (QSeries.one(3), operator.sub),
        (QSeries.one(3), operator.mul),
    ],
    ids=["poly+", "poly-", "series+", "series-", "series*"],
)
def test_operators_refuse_other_types(left, op):
    """A ``str`` operand is neither coerced nor combined: the operator returns
    ``NotImplemented`` and Python raises ``TypeError``."""
    assert getattr(left, f"__{op.__name__}__")("q") is NotImplemented
    with pytest.raises(TypeError):
        op(left, "q")


@pytest.mark.parametrize(
    "left, right",
    [(ONE + Q, QSeries.one(3)), (QSeries.one(3), ONE + Q), (QSeries.one(3), 1)],
    ids=["poly-series", "series-poly", "series-int"],
)
def test_subtraction_refuses_what_addition_refuses(left, right):
    """A difference is the sum with the negation, so it refuses the pairs
    ``+`` refuses: a polynomial with a series either way, and a series with
    an ``int``."""
    with pytest.raises(TypeError):
        left - right


@pytest.mark.parametrize(
    "x, text",
    [
        (P(-1, 2, 0, -1), "LaurentPoly('-2q^-1 + q')"),
        (poly_to_series(P(-1, 2, 0, -1), 3), "QSeries('-2q^-1 + q + O(q^4)')"),
        (QSeries.zero(2), "QSeries('O(q^3)')"),
    ],
    ids=["poly", "series", "zero-series"],
)
def test_negation_and_repr_keep_the_class(x, text):
    """``-x`` is ``x``'s class with every field but the coefficients kept,
    and ``repr`` names that class around ``str``."""
    neg = -x
    assert neg.__class__ is x.__class__
    assert neg._values()[:-1] == x._values()[:-1]
    assert repr(neg) == text
    assert -neg == x


class TestSeriesTruncated:
    def test_restrict(self):
        a = poly_to_series(P(0, 1, 1, 1, 1), 3)
        t = a.truncated(1)
        assert t.order == 1
        assert t.coeffs == (1, 1)

    def test_cannot_extend(self):
        with pytest.raises(OrderTooHighError):
            QSeries.one(2).truncated(3)

    def test_truncate_below_min_exp(self):
        a = poly_to_series(monomial(1, 4), 6)
        t = a.truncated(2)
        assert t.is_zero()
        assert t.order == 2


class TestSeriesFormatting:
    def test_tail_marker(self):
        assert str(QSeries.one(3)) == "1 + O(q^4)"
        assert str(QSeries.zero(3)) == "O(q^4)"
