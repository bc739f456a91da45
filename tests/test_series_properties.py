"""Property-based tests: ring axioms and truncation contracts."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import packed, series
from qschur.determinant import schur_finite, schur_finite_direct
from qschur.identities import rr_product_first
from qschur.schur import lambda_coeff, mu_coeff, schur_D
from qschur.series import (
    KRONECKER_MIN_TERMS,
    ONE,
    LaurentPoly,
    QSeries,
    _convolve,
    _kronecker,
    _schoolbook,
    _through,
    divide_one_minus_qk,
    monomial,
    poly_first_mismatch,
    poly_to_series,
    series_first_mismatch,
)

from .oracles import series_inverse, series_product, series_sum

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


@st.composite
def windows(draw, low=-10, high=14):
    """A series with ``min_exp`` drawn from ``low .. high``, negative ones
    included; a window of width 0 gives the zero series."""
    min_exp = draw(st.integers(low, high))
    order = draw(st.integers(min_exp - 1, min_exp + 10))
    width = order - min_exp + 1
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=width, max_size=width))
    return QSeries(order, min_exp, coeffs)


@st.composite
def window_pairs(draw):
    """Two series of unrelated orders; in half the draws one window lies
    wholly above the other's order."""
    a = draw(windows())
    b = draw(windows(a.order + 1, a.order + 6) if draw(st.booleans()) else windows())
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def coefficient_lists(draw):
    """Non-empty signed lists with zeros, of up to about 300-bit entries.

    Lengths reach past twice :data:`KRONECKER_MIN_TERMS`, so both sides of
    the ``_convolve`` dispatch are drawn.
    """
    bits = draw(st.integers(min_value=0, max_value=300))
    entry = st.integers(-(1 << bits), 1 << bits)
    size = st.integers(min_value=1, max_value=2 * KRONECKER_MIN_TERMS + 8)
    return draw(st.lists(st.one_of(st.just(0), entry), min_size=1, max_size=draw(size)))


@st.composite
def carry_lists(draw):
    """Entries from ``+-(2^b - 1)`` and ``-2^b``: every digit near its limit."""
    bits = draw(st.integers(min_value=0, max_value=300))
    extremes = st.sampled_from([(1 << bits) - 1, 1 - (1 << bits), -(1 << bits)])
    return draw(st.lists(extremes, min_size=1, max_size=40))


kernel_operands = st.one_of(coefficient_lists(), carry_lists())


@st.composite
def codec_cases(draw):
    """A digit width ``w`` and signed lists that fit it: zeros, single terms
    and the limits ``+-(half - 1)``."""
    w = draw(st.integers(min_value=1, max_value=40))
    half = 1 << (8 * w - 1)
    entry = st.one_of(
        st.just(0),
        st.sampled_from([half - 1, 1 - half, 1, -1]),
        st.integers(1 - half, half - 1),
    )
    return draw(st.lists(entry, max_size=40)), w


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
        prod = sa * sb
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

    @given(polys, polys, orders, orders)
    def test_add_of_unequal_orders(self, a, b, order_a, order_b):
        """A sum is known to the lower order, as each side's sum of terms."""
        sa, sb = poly_to_series(a, order_a), poly_to_series(b, order_b)
        total = sa + sb
        assert total.order == min(order_a, order_b)
        for e in range(-30, total.order + 1):
            assert total.coefficient(e) == sa.coefficient(e) + sb.coefficient(e)

    @given(
        polys,
        polys,
        st.integers(-3, 3),
        st.integers(-6, 18),
        st.integers(0, 20),
        st.integers(0, 40),
        st.integers(0, 40),
        st.integers(-6, 40),
        st.lists(st.integers(-9, 9), min_size=0, max_size=30),
        st.integers(0, 6),
    )
    def test_mismatch_scans_match_a_per_exponent_scan(
        self, a, b, c, e, lift, order_a, order_b, up_to, prefix, zeros
    ):
        """Both mismatch finders agree with comparing ``coefficient()``
        exponent by exponent, on random pairs and on pairs one term apart, as
        series of unequal orders, and with windows lifted by ``q^lift``, whose
        ``min_exp`` can lie above ``up_to``; and, either way round, on cuts
        that share a long prefix and differ after it, and on cuts where one is
        a prefix of the other followed by ``zeros`` zeros and a term."""

        def scan(x, y, hi):
            for k in range(-30, hi + 1):
                if x.coefficient(k) != y.coefficient(k):
                    return (k, x.coefficient(k), y.coefficient(k))
            return None

        lifted = a * monomial(1, lift)
        pairs = ((a, b), (a, a + monomial(c, e)), (lifted, b))
        shared = LaurentPoly(-6, [*prefix, c]), LaurentPoly(-6, [*prefix, c + 1])
        longer = LaurentPoly(-6, [*prefix, *[0] * zeros, c or 1])
        extra = (shared, (LaurentPoly(-6, prefix), longer))
        extra += tuple((y, x) for x, y in extra)
        for x, y in (*pairs, (lifted, lifted + monomial(c, e + lift)), *extra):
            assert poly_first_mismatch(x, y) == scan(x, y, 40)
            sx, sy = poly_to_series(x, order_a), poly_to_series(y, order_b)
            hi = min(up_to, order_a, order_b)
            assert series_first_mismatch(sx, sy, hi) == scan(sx, sy, hi)

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
        prod = a * inv
        assert prod == QSeries.one(prod.order)
        assert prod.order == rel_order


def _divided(s: QSeries, k: int) -> QSeries:
    """``s / (1 - q^k)``, from ``s``'s window divided in place."""
    coeffs = list(s.coeffs)
    divide_one_minus_qk(coeffs, k)
    return QSeries(s.order, s.min_exp, coeffs)


class TestDivideOneMinusQk:
    @given(nonnegative_series, strides)
    def test_matches_triangular_inverse(self, s, k):
        """The prefix sum equals the product with the inverted factor."""
        factor = poly_to_series(ONE - monomial(1, k), s.order)
        assert _divided(s, k) == s * series_inverse(factor)

    @given(nonnegative_series, strides)
    def test_round_trip(self, s, k):
        quotient = _divided(s, k)
        assert quotient * (ONE - monomial(1, k)) == s

    @pytest.mark.parametrize("k", [0, -1, -7])
    def test_nonpositive_stride_rejected(self, k):
        with pytest.raises(ValueError):
            divide_one_minus_qk([1] + [0] * 5, k)

    def test_empty_and_short_windows(self):
        """The division returns nothing.  An empty window stays empty, and a
        stride of the window's length or more leaves it as it is: no
        coefficient has one ``k`` below it."""
        empty: list[int] = []
        assert divide_one_minus_qk(empty, 3) is None
        assert empty == []
        window = [2, -1, 5]
        for k in (3, 4, 10**9):
            divide_one_minus_qk(window, k)
            assert window == [2, -1, 5], k
        divide_one_minus_qk(window, 2)
        assert window == [2, -1, 7]


class TestDigitCodec:
    """The balanced digit codec shared by the kernel and the recurrence tables."""

    @settings(max_examples=300)
    @given(codec_cases(), st.data())
    def test_round_trip(self, case, data):
        """Every digit round-trips; fewer digits than the value holds are
        refused unless the digits left out are all zero."""
        coeffs, w = case
        value = packed.pack(coeffs, w)
        assert packed.unpack(value, len(coeffs), w) == coeffs
        low = data.draw(st.integers(min_value=0, max_value=len(coeffs)))
        if any(coeffs[low:]):
            with pytest.raises(OverflowError):
                packed.unpack(value, low, w)
        else:
            assert packed.unpack(value, low, w) == coeffs[:low]

    def test_low_digits_below_a_negative_top(self):
        """A length shorter than the value raises :class:`OverflowError`,
        whether the digits left out sum to a negative number, so that the
        biased value is negative, or do not show in the low digits; zero
        digits left out are no loss."""
        cases = (([1, -1], 1, 1), ([-5, 3, -1], 2, 2), ([0, 0, 1], 2, 1))
        for coeffs, length, w in cases:
            with pytest.raises(OverflowError):
                packed.unpack(packed.pack(coeffs, w), length, w)
        assert packed.unpack(packed.pack([-5, 3, 0], 2), 2, 2) == [-5, 3]


class TestSeriesArithmetic:
    """Each operation against the term-by-term oracle; ``QSeries`` equality
    compares the value, the ``order`` and the ``min_exp``."""

    @settings(max_examples=300)
    @given(window_pairs(), polys, st.integers(-4, 4))
    def test_matches_term_by_term_oracle(self, pair, p, k):
        a, b = pair
        assert a + b == series_sum(a, b)
        assert a - b == series_sum(a, series_product(b, -1))
        assert a * b == series_product(a, b)
        assert a * p == p * a == series_product(a, p)
        assert a * k == series_product(a, k)

    def test_operands_cut_to_the_result_window(self, monkeypatch):
        """A short operand bounds the work: no operand is cut longer than the
        result's window, and the kernel sees none longer, however long the
        other operand is or wherever its window lies."""
        long_series, short_series = rr_product_first(3000), rr_product_first(20)
        high = long_series * monomial(1, 40)  # wholly above short_series's order
        deep = schur_D(150)
        lengths = []

        def spy(a, b):
            lengths.append(max(len(a), len(b)))
            return _convolve(a, b)

        def cut_spy(a, top):
            cut = _through(a, top)
            lengths.append(len(cut.coeffs))
            return cut

        monkeypatch.setattr(series, "_convolve", spy)
        monkeypatch.setattr(series, "_through", cut_spy)
        for operation in (
            lambda: long_series * short_series,
            lambda: poly_to_series(ONE, 10) * deep,
            lambda: high + short_series,
            lambda: QSeries.zero(10) * long_series,
        ):
            lengths.clear()
            result = operation()
            assert lengths and max(lengths) <= result.order - result.min_exp + 1


class TestKroneckerKernel:
    """Kronecker substitution against the schoolbook loop, its oracle."""

    @settings(max_examples=200)
    @given(kernel_operands, kernel_operands)
    def test_matches_schoolbook(self, a, b):
        """Whole products, of operands of equal and of mixed lengths."""
        expected = _schoolbook(a, b)
        assert len(expected) == len(a) + len(b) - 1
        assert _kronecker(a, b) == expected
        assert _convolve(a, b) == expected

    @pytest.mark.parametrize("bits", [0, 1, 7, 8, 9, 31, 64, 100, 127, 128, 255, 300])
    @pytest.mark.parametrize("size", [1, 2, 3, 15, 16, 127, 128])
    def test_carry_extremes(self, bits, size):
        """Equal extreme entries make every middle digit as wide as allowed."""
        for x in ((1 << bits) - 1, 1 - (1 << bits), -(1 << bits)):
            for y in ((1 << bits) - 1, -(1 << bits)):
                a, b = [x] * size, [y] * (size + 1)
                assert _kronecker(a, b) == _schoolbook(a, b)

    def test_dispatch_by_sparser_operand(self, monkeypatch):
        """Kronecker runs only when both operands reach the crossover."""
        calls = []

        def spy(a, b):
            calls.append(len(a) + len(b) - 1)
            return _kronecker(a, b)

        monkeypatch.setattr(series, "_kronecker", spy)
        dense = list(range(1, 200))
        sparse = [1] + [0] * 50 + [1] * (KRONECKER_MIN_TERMS - 2)
        for a, b in ((sparse, dense), (dense, sparse), (dense, sparse + [1])):
            assert _convolve(a, b) == _schoolbook(a, b)
        assert len(calls) == 1

    @pytest.mark.parametrize("m", range(9))
    def test_determinant_check_products_stay_on_schoolbook(self, m, monkeypatch):
        """The cofactor oracle of ``determinant --check`` (n <= 14) and the
        factors ``lambda(m)``, ``mu(m)`` multiply small polynomials, which for
        m <= 8 are too sparse to pack: every product runs on the loop."""
        calls = []

        def spy(a, b):
            calls.append(len(a) + len(b) - 1)
            return _convolve(a, b)

        monkeypatch.setattr(series, "_kronecker", None)
        monkeypatch.setattr(series, "_convolve", spy)
        assert schur_finite_direct(14, m) == schur_finite(14, m)
        lambda_coeff(m), mu_coeff(m)
        assert calls
