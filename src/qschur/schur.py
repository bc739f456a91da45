"""The two Schur polynomial families and their decomposition coefficients.

Both families satisfy the three-term recursion ``X_m = X_{m-1} + q^m X_{m-2}``
and differ only in their initial values:

* ``D_0 = 1``, ``D_1 = 1 + q``
* ``E_0 = 1``, ``E_1 = 1``

Running the recursion backward, ``X_{m-2} = (X_m - X_{m-1}) q^{-m}``, forces
``D_{-1} = 1, D_{-2} = 0`` and ``E_{-1} = 0, E_{-2} = 1``; indices down to -2
are supported everywhere.  The Casoratian of the two solutions,
``D_{m-1} E_m - D_m E_{m-1}``, collapses to the signed monomial
``(-1)^m q^(binomial(m+1, 2))``, which is what makes the closed forms for the
decomposition coefficients ``lambda`` and ``mu`` possible.
"""

from __future__ import annotations

import enum
import threading
from math import comb

from .series import LaurentPoly, monomial

__all__ = [
    "SchurKind",
    "schur_polynomial",
    "schur_D",
    "schur_E",
    "wronskian",
    "lambda_coeff",
    "mu_coeff",
]


class SchurKind(enum.Enum):
    """Which of the two initial-value choices a Schur polynomial uses."""

    D = "D"
    E = "E"


class _SchurTable:
    """Memoized table of one family, indexed from -2 upward.

    The recursion is inherently sequential, so entries are built once, in
    order, under a lock; completed entries are immutable and may be read
    concurrently.
    """

    def __init__(self, x_minus2: LaurentPoly, x_minus1: LaurentPoly):
        self._entries = [x_minus2, x_minus1]  # indices -2, -1
        self._lock = threading.Lock()

    def up_to(self, m: int) -> LaurentPoly:
        if m + 2 < len(self._entries):
            return self._entries[m + 2]
        with self._lock:
            entries = self._entries
            while len(entries) <= m + 2:
                k = len(entries) - 2  # index being built
                entries.append(entries[-1] + entries[-2].shifted(k))
            return entries[m + 2]


_TABLES = {
    SchurKind.D: _SchurTable(LaurentPoly(), LaurentPoly(0, (1,))),
    SchurKind.E: _SchurTable(LaurentPoly(0, (1,)), LaurentPoly()),
}


def schur_polynomial(kind: SchurKind, m: int) -> LaurentPoly:
    """The Schur polynomial of the given family at index ``m >= -2``."""
    if m < -2:
        raise IndexError(f"Schur polynomial index must be >= -2, got {m}")
    return _TABLES[kind].up_to(m)


def schur_D(m: int) -> LaurentPoly:
    """``D_m``: recursion ``D_m = D_{m-1} + q^m D_{m-2}`` from ``D_0=1, D_1=1+q``."""
    return schur_polynomial(SchurKind.D, m)


def schur_E(m: int) -> LaurentPoly:
    """``E_m``: same recursion from ``E_0 = E_1 = 1``."""
    return schur_polynomial(SchurKind.E, m)


def wronskian(m: int) -> LaurentPoly:
    """``D_{m-1} E_m - D_m E_{m-1}``, computed from the polynomials.

    Never uses the closed form ``(-1)^m q^(binomial(m+1, 2))``; verifying that
    the two agree is left to the test suite.
    """
    if m < 0:
        raise IndexError(f"wronskian requires m >= 0, got {m}")
    return schur_D(m - 1) * schur_E(m) - schur_D(m) * schur_E(m - 1)


def lambda_coeff(m: int) -> LaurentPoly:
    """Coefficient of ``D_{n+m}`` in the finite-determinant decomposition.

    Closed form ``(-1)^m q^(-binomial(m, 2)) E_{m-2}``.
    """
    if m < 0:
        raise IndexError(f"lambda_coeff requires m >= 0, got {m}")
    sign = -1 if m % 2 else 1
    return monomial(sign, -comb(m, 2)) * schur_E(m - 2)


def mu_coeff(m: int) -> LaurentPoly:
    """Coefficient of ``E_{n+m}`` in the finite-determinant decomposition.

    Closed form ``(-1)^(m+1) q^(-binomial(m, 2)) D_{m-2}``.
    """
    if m < 0:
        raise IndexError(f"mu_coeff requires m >= 0, got {m}")
    sign = 1 if m % 2 else -1
    return monomial(sign, -comb(m, 2)) * schur_D(m - 2)
