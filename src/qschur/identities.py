"""The Rogers-Ramanujan products and the Garrett-Ismail-Stanton identity.

The two classical Rogers-Ramanujan products,

    P1 = prod 1 / ((1 - q^(5n+1)) (1 - q^(5n+4))),
    P2 = prod 1 / ((1 - q^(5n+2)) (1 - q^(5n+3))),

are the limits of the Schur polynomial families ``D_m`` and ``E_m``.  The
Garrett-Ismail-Stanton identity expresses the shifted sum

    sum_{n>=0} q^(n^2 + mn) / ((1-q)...(1-q^n))

as the combination ``lambda(m) P1 + mu(m) P2`` with the decomposition
coefficients of :mod:`qschur.schur`, that is

    (-1)^m q^(-binomial(m, 2)) (E_{m-2} P1 - D_{m-2} P2),

which at m = 0 and m = 1 degenerates (via ``D_{-2} = 0`` and ``E_{-1} = 0``)
to the two classical identities.  Everything here is verified coefficient by
coefficient to a requested truncation order, with zero tolerance.
"""

from __future__ import annotations

from math import isqrt

from .determinant import schur_x1_series
from .reports import CheckSuiteResult, VerificationReport, compare_series
from .schur import _check_budget, _factor, _lock, _table, lambda_coeff, mu_coeff
from .schur import schur_D, schur_E
from .series import QSeries, poly_to_series

__all__ = [
    "rr_product_first",
    "rr_product_second",
    "gis_rhs",
    "verify_gis",
    "verify_schur_limits",
]


# P1 (r = 1) and P2 (r = 2) through the highest order asked so far.  A list
# only grows, so a shorter request is a slice; appends run under schur._lock.
_products: dict[int, list[int]] = {1: [], 2: []}


def _product_bytes(order: int) -> int:
    """A bound on the bytes of a product's coefficient list through
    ``q^order``, from integers alone.

    ``c_k`` counts partitions of ``k`` into parts ``+-r`` mod 5, so ``c_k <=
    p(k) < exp(pi sqrt(2k/3))`` (Apostol, Thm 14.5) has at most ``3.701
    sqrt(k) + 1`` bits, and ``sum_{k<n} sqrt(k) <= (2/3) n^1.5``.  CPython
    holds ``b`` bits in at most ``28 + 2b/15`` bytes, and the list takes 8
    more per entry.
    """
    n = order + 1
    bits = -(-3701 * 2 * n * (isqrt(n) + 1) // 3000) + n
    return 36 * n + -(-2 * bits // 15)


def _check_product(top: int) -> None:
    """Refuse a product through ``q^top`` whose list :func:`_product_bytes`
    puts over the budget with :class:`~qschur.schur.TooLargeError`."""
    _check_budget(_product_bytes(top), f"a Rogers-Ramanujan product through q^{top}")


def _refuse_gis(m: int, order: int) -> int:
    """Raise, before anything is built, the
    :class:`~qschur.schur.TooLargeError` that :func:`gis_rhs` or
    :func:`verify_gis` would raise at ``order`` and any shift up to ``m``;
    otherwise return the products' top at ``m``, ``order + binomial(m, 2)``
    (:func:`~qschur.schur._factor`).

    Each bound grows with the shift, so the check at ``m`` covers every
    smaller one.  The tables are ``D`` and ``E`` through ``m - 2``, and
    wherever ``D``'s :meth:`~qschur.schur.RecurrenceTable.footprint` is
    within the budget ``E``'s is no larger, so ``D``'s is checked alone.
    The products run through ``order + binomial(m, 2)``.  ``lambda(m)``
    and ``mu(m)`` each unpack one entry, far smaller than its table's
    footprint, so the decode budget never refuses first.
    """
    _table("D")._check(m - 2)
    top = order + _factor(m, "_refuse_gis")[1]
    _check_product(top)
    return top


def _rr_product(r: int, order: int) -> QSeries:
    """``P_r`` through ``q^order``, computing only the coefficients not yet held.

    By the Jacobi triple product ``P_r (q;q)_inf`` is the theta series
    ``sum_n (-1)^n q^(5n(n-1)/2 + (3-r)n)``, so Euler's pentagonal theorem gives
    ``c_k = theta_k + sum_{j>=1} (-1)^(j+1) (c_{k-j(3j-1)/2} + c_{k-j(3j+1)/2})``.
    An order over the budget (:func:`_check_product`) raises
    :class:`~qschur.schur.TooLargeError` before anything is built.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    _check_product(order)
    c = _products[r]
    if len(c) <= order:
        with _lock:
            theta = {}
            for n in range(-isqrt(order), isqrt(order) + 1):  # n(5n+1-2r)/2 >= n^2
                theta[n * (5 * n + 1 - 2 * r) // 2] = (-1) ** (n & 1)
            for k in range(len(c), order + 1):
                total, j, g = theta.get(k, 0), 1, 1  # g = j(3j-1)/2
                while g <= k:
                    term = c[k - g] + (c[k - g - j] if g + j <= k else 0)
                    total = total + term if j & 1 else total - term
                    j += 1
                    g += 3 * j - 2
                c.append(total)
    return QSeries(order, 0, c[: order + 1])


def rr_product_first(order: int) -> QSeries:
    """The product over exponents congruent to 1 or 4 mod 5, truncated.

    Generating function of partitions into such parts.
    """
    return _rr_product(1, order)


def rr_product_second(order: int) -> QSeries:
    """The product over exponents congruent to 2 or 3 mod 5, truncated."""
    return _rr_product(2, order)


def gis_rhs(m: int, order: int) -> QSeries:
    """Product side ``lambda(m) P1 + mu(m) P2``, the limit ``n -> oo`` of
    ``Schur_n = lambda(m) D_{n+m} + mu(m) E_{n+m}``.

    A nonzero ``lambda(m)`` or ``mu(m)`` has its lowest term at
    ``q^(-binomial(m, 2))``, so with both products through
    ``order + binomial(m, 2)`` each term is exact through ``order``.  An
    over-budget request raises :class:`TooLargeError` (:func:`_refuse_gis`)
    before any table or series is built.
    """
    if m < 0 or order < 0:
        raise ValueError(f"gis_rhs requires m, order >= 0, got ({m}, {order})")
    k = _refuse_gis(m, order)
    return rr_product_first(k) * lambda_coeff(m) + rr_product_second(k) * mu_coeff(m)


def verify_gis(m: int, order: int) -> VerificationReport:
    """Compare both sides of the identity coefficient by coefficient; the
    product side is built first, so an over-budget request is refused
    (:func:`gis_rhs`) before the sum side is built."""
    rhs = gis_rhs(m, order)
    lhs = schur_x1_series(m, order)
    return compare_series("gis", {"m": m, "order": order}, lhs, rhs, order)


def verify_schur_limits(M: int) -> CheckSuiteResult:
    """Check that ``D_M`` and ``E_M`` match their limit products.

    Successive polynomials differ by ``q^M X_{M-2}``, so ``X_M`` already
    agrees with its limit on every exponent ``<= M - 1``; that finite window
    is what gets compared, for each of the two families.
    """
    if M < 2:
        raise ValueError(f"verify_schur_limits requires M >= 2, got {M}")
    order = M - 1
    reports = tuple(
        compare_series(
            f"schur-limit-{kind}",
            {"M": M, "order": order},
            poly_to_series(schur(M), order),
            product(order),
            order,
        )
        for kind, schur, product in (
            ("D", schur_D, rr_product_first),
            ("E", schur_E, rr_product_second),
        )
    )
    return CheckSuiteResult(reports=reports)
