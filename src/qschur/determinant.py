"""The finite Schur determinant and the expansion coefficients of its limit.

The finite determinant ``Schur_n`` is the ``(n+1) x (n+1)`` tridiagonal
determinant with unit diagonal, ``-1`` subdiagonal, and superdiagonal entry
``q^(k+m)`` in row ``k`` (1-based).  Expanding along the last row gives the
three-term recursion

    Schur_n = Schur_{n-1} + q^(n+m) Schur_{n-2},    Schur_0 = 1,
                                                    Schur_1 = 1 + q^(1+m),

which is how :func:`schur_finite` computes it; :func:`schur_finite_direct`
evaluates the same determinant by generic cofactor expansion as an
independent oracle.

Expanding the *infinite* determinant along its first column instead yields,
for the coefficients ``a_n`` of its grading by superdiagonal entries used,
``(1 - q^n) a_n = q^(2n-1+m) a_{n-1}`` and hence the closed form

    a_n = q^(n^2 + mn) / ((1-q)(1-q^2)...(1-q^n)).

The specialization summing all ``a_n`` (:func:`schur_x1_series`) is the
common value both identity sides converge to; the sum is taken by the same
first-column recurrence, from the innermost term out.
"""

from __future__ import annotations

from math import isqrt

from .reports import VerificationReport, compare_polys, compare_series
from .series import LaurentPoly, QSeries, divide_one_minus_qk, monomial
from .schur import TooLargeError, _decomposition, _table, lambda_coeff, mu_coeff
from .schur import schur_D, schur_E

__all__ = [
    "DIRECT_ORACLE_MAX_N",
    "schur_finite",
    "schur_finite_direct",
    "schur_coefficient",
    "check_coefficient_recurrence",
    "schur_x1_series",
    "decompose",
]


#: Largest n accepted by :func:`schur_finite_direct`.
DIRECT_ORACLE_MAX_N = 14


def schur_finite(n: int, m: int) -> LaurentPoly:
    """``Schur_n`` for shift ``m``, via the three-term recursion.

    Running it backward gives ``Schur_{-1} = 1`` and ``Schur_{-2} = 0``, the
    initial values of ``D``; at ``m = 0`` the two are one table.
    """
    if n < 0 or m < 0:
        raise ValueError(f"schur_finite requires n, m >= 0, got ({n}, {m})")
    return _table("D", m).entry(n)


def _det_cofactor(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by cofactor expansion along the first row, skipping zeros.

    Generic over any square matrix of polynomials; exponential in the worst
    case, which is why the public oracle caps its input size.
    """
    if len(rows) == 1:
        return rows[0][0]
    total = LaurentPoly()
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * _det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def schur_finite_direct(n: int, m: int) -> LaurentPoly:
    """``Schur_n`` evaluated straight from the matrix, no three-term recursion.

    Builds the explicit ``(n+1) x (n+1)`` tridiagonal matrix and runs generic
    cofactor expansion over the polynomial ring.  Oracle use only: cost grows
    quickly, so ``n`` is capped at :data:`DIRECT_ORACLE_MAX_N`.
    """
    if n < 0 or m < 0:
        raise ValueError(f"schur_finite_direct requires n, m >= 0, got ({n}, {m})")
    if n > DIRECT_ORACLE_MAX_N:
        raise TooLargeError(
            f"direct determinant oracle is capped at n <= {DIRECT_ORACLE_MAX_N}, "
            f"got n = {n}"
        )
    size = n + 1
    zero, one = LaurentPoly(), LaurentPoly(0, (1,))
    rows = [[zero] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = one
        if i + 1 < size:
            rows[i + 1][i] = -one
            rows[i][i + 1] = monomial(1, (i + 1) + m)  # row i+1, 1-based
    return _det_cofactor(rows)


def schur_coefficient(n: int, m: int, order: int) -> QSeries:
    """The expansion coefficient ``a_n = q^(n^2+mn) / ((1-q)...(1-q^n))``.

    Truncated at ``order``; built as the window of the monomial, divided in
    place by each ``1 - q^j`` in turn, one O(order) prefix sum per factor.
    """
    if n < 0 or m < 0:
        raise ValueError(f"schur_coefficient requires n, m >= 0, got ({n}, {m})")
    low = n * n + m * n
    window = [1] + [0] * (order - low) if low <= order else []
    for j in range(1, n + 1):
        divide_one_minus_qk(window, j)
    return QSeries(order, min(low, order + 1), window)


def check_coefficient_recurrence(n: int, m: int, order: int) -> VerificationReport:
    """Verify ``(1 - q^n) a_n = q^(2n-1+m) a_{n-1}`` up to ``order``.

    Both sides are computed from the closed form for the coefficients, so
    this ties the closed form back to the first-column expansion relation
    it was iterated from.
    """
    if n < 1:
        raise ValueError(f"coefficient recurrence needs n >= 1, got {n}")
    lhs = schur_coefficient(n, m, order) * (LaurentPoly(0, (1,)) - monomial(1, n))
    rhs = schur_coefficient(n - 1, m, order) * monomial(1, 2 * n - 1 + m)
    return compare_series(
        "coefficient-recurrence",
        {"n": n, "m": m, "order": order},
        lhs.truncated(order),
        rhs.truncated(order),
        order,
    )


def schur_x1_series(m: int, order: int) -> QSeries:
    """Sum of all ``a_n`` truncated at ``order``, by Horner's rule on the
    first-column recurrence.

    The tails ``T_k = sum_{n >= k} a_n / a_k`` satisfy ``T_{k-1} = 1 +
    q^(2k-1+m) T_k / (1 - q^k)``, and the sum is ``T_0``.  It is exact:
    ``a_k`` starts at ``q^(k^2+mk)``, so ``T_k`` is needed only through
    ``q^(order - k^2 - mk)``; and for ``N`` (``top``), the largest ``n`` with
    ``n^2 + mn <= order``, ``T_N`` is exactly 1 there, because ``(N+1)^2 +
    m(N+1) > order``.  The steps run for ``k = N .. 1`` from ``T_N = 1`` on
    one list, divided in place and then prepended once per step.
    """
    if m < 0 or order < 0:
        raise ValueError(f"schur_x1_series requires m, order >= 0, got ({m}, {order})")
    # n^2 + mn <= order exactly when 2n + m <= isqrt(m^2 + 4 order)
    top = (isqrt(m * m + 4 * order) - m) // 2
    t = [1] + [0] * (order - top * top - m * top)
    for k in range(top, 0, -1):
        divide_one_minus_qk(t, k)
        t = [1] + [0] * (2 * k - 2 + m) + t
    return QSeries(order, 0, t)


def decompose(n: int, m: int) -> VerificationReport:
    """Check ``Schur_n = lambda(m) D_{n+m} + mu(m) E_{n+m}`` exactly.

    The combination must come out to a genuine polynomial (no negative
    exponents survive) equal to the recursion-built determinant.  It is
    compared with the table entries packed (``schur._decomposition``), which
    unpacks nothing.  Only a mismatch is reported from unpacked entries: both
    sides are built again in :class:`LaurentPoly` arithmetic, which shares
    no code with the packed check, and compared coefficient by coefficient.
    """
    if n < 0 or m < 0:
        raise ValueError(f"decompose requires n, m >= 0, got ({n}, {m})")
    params = {"n": n, "m": m}
    if _decomposition(n, m):
        return VerificationReport("decomposition", params)
    rhs = lambda_coeff(m) * schur_D(n + m) + mu_coeff(m) * schur_E(n + m)
    # Equality with lhs (a polynomial with constant term 1) already implies no
    # negative exponent survives; any stray q^(-k) term shows up as a mismatch.
    return compare_polys("decomposition", params, schur_finite(n, m), rhs)
