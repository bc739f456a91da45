"""Property-based tests: ring axioms and truncation contracts."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur.series import (
    ONE,
    LaurentPoly,
    QSeries,
    divide_one_minus_qk,
    monomial,
    poly_to_series,
    series_inverse,
    series_mul,
)

# Small polynomials keep shrinking fast while still exercising carries,
# cancellation, and negative exponents.
polys = st.builds(
    LaurentPoly,
    st.integers(min_value=-5, max_value=10),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=8),
)

orders = st.integers(min_value=0, max_value=12)


@st.composite
def dense_series(draw):
    """A series with ``min_exp >= 0``; ``min_exp == order + 1`` is zero."""
    order = draw(st.integers(min_value=0, max_value=30))
    min_exp = draw(st.integers(min_value=0, max_value=order + 1))
    width = order - min_exp + 1
    coeffs = draw(
        st.lists(st.integers(-(10**20), 10**20), min_size=width, max_size=width)
    )
    return QSeries(order, min_exp, coeffs)


nonnegative_series = st.one_of(
    dense_series(),
    orders.map(QSeries.zero),
    st.builds(
        lambda c, e, order: poly_to_series(monomial(c, e), order),
        st.integers(-9, 9),
        st.integers(0, 12),
        orders,
    ),
)
strides = st.integers(min_value=1, max_value=15)


class TestPolyRingAxioms:
    @given(polys, polys)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(polys)
    def test_additive_identity_and_inverse(self, a):
        assert a + LaurentPoly() == a
        assert (a + (-a)).is_zero()

    @given(polys, polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_mul_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys)
    def test_multiplicative_identity(self, a):
        assert a * ONE == a

    @given(polys, polys, polys)
    def test_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_normalized_form(self, a):
        if a.is_zero():
            assert a.min_exp == 0 and a.coeffs == ()
        else:
            assert a.coeffs[0] != 0 and a.coeffs[-1] != 0


class TestSeriesContracts:
    @given(polys, polys, orders)
    def test_mul_matches_exact_poly_product(self, a, b, order):
        """Series product equals the exact product wherever both are known."""
        sa = poly_to_series(a, order)
        sb = poly_to_series(b, order)
        prod = series_mul(sa, sb)
        exact = a * b
        for e in range(-30, prod.order + 1):
            assert prod.coefficient(e) == exact.coefficient(e)

    @given(polys, polys, orders)
    def test_add_matches_exact_poly_sum(self, a, b, order):
        sa = poly_to_series(a, order)
        sb = poly_to_series(b, order)
        total = sa + sb
        exact = a + b
        for e in range(-30, total.order + 1):
            assert total.coefficient(e) == exact.coefficient(e)

    @given(polys, orders)
    def test_series_window_invariant(self, a, order):
        s = poly_to_series(a, order)
        assert len(s.coeffs) == s.order - s.min_exp + 1
        if s.coeffs:
            assert s.coeffs[0] != 0
        else:
            assert s.min_exp == s.order + 1

    @settings(max_examples=60)
    @given(
        st.integers(min_value=-3, max_value=3),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=6),
        st.integers(min_value=0, max_value=10),
    )
    def test_inverse_is_two_sided(self, shift, tail, rel_order):
        """a * inverse(a) == 1 whenever the lowest coefficient is a unit."""
        coeffs = [1] + tail
        a = poly_to_series(LaurentPoly(shift, coeffs), rel_order + shift)
        inv = series_inverse(a)
        prod = series_mul(a, inv)
        assert prod == QSeries.one(prod.order)
        assert prod.order == rel_order


class TestDivideOneMinusQk:
    @given(nonnegative_series, strides)
    def test_matches_triangular_inverse(self, s, k):
        """The prefix sum equals the product with the inverted factor."""
        factor = poly_to_series(ONE - monomial(1, k), s.order)
        assert divide_one_minus_qk(s, k) == s * series_inverse(factor)

    @given(nonnegative_series, strides)
    def test_round_trip(self, s, k):
        quotient = divide_one_minus_qk(s, k)
        assert quotient.times_poly(ONE - monomial(1, k)) == s

    @pytest.mark.parametrize("k", [0, -1, -7])
    def test_nonpositive_stride_rejected(self, k):
        with pytest.raises(ValueError):
            divide_one_minus_qk(QSeries.one(5), k)
