"""Exact q-series arithmetic for the Rogers-Ramanujan circle of identities.

Everything is integer-exact: Laurent polynomials and truncated power series
over the integers, Schur's polynomial solutions of the Rogers-Ramanujan
recurrence, the finite Schur determinant, and coefficient-by-coefficient
verification of the Garrett-Ismail-Stanton generalization.
"""

from .determinant import (
    DIRECT_ORACLE_MAX_N,
    check_coefficient_recurrence,
    decompose,
    schur_coefficient,
    schur_finite,
    schur_finite_direct,
    schur_x1_series,
)
from .identities import (
    gis_rhs,
    rr_product_first,
    rr_product_second,
    verify_gis,
    verify_schur_limits,
)
from .reports import CheckSuiteResult, Mismatch, VerificationReport, compare_series
from .schur import (
    SchurKind,
    TooLargeError,
    lambda_coeff,
    mu_coeff,
    schur_D,
    schur_E,
    schur_polynomial,
    wronskian,
)
from .series import (
    ONE,
    Q,
    LaurentPoly,
    NotInvertibleError,
    OrderTooHighError,
    QSeries,
    monomial,
    poly_first_mismatch,
    poly_to_series,
    series_first_mismatch,
    series_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "DIRECT_ORACLE_MAX_N",
    "TooLargeError",
    "check_coefficient_recurrence",
    "decompose",
    "schur_coefficient",
    "schur_finite",
    "schur_finite_direct",
    "schur_x1_series",
    "gis_rhs",
    "rr_product_first",
    "rr_product_second",
    "verify_gis",
    "verify_schur_limits",
    "CheckSuiteResult",
    "Mismatch",
    "VerificationReport",
    "compare_series",
    "SchurKind",
    "lambda_coeff",
    "mu_coeff",
    "schur_D",
    "schur_E",
    "schur_polynomial",
    "wronskian",
    "ONE",
    "Q",
    "LaurentPoly",
    "NotInvertibleError",
    "OrderTooHighError",
    "QSeries",
    "monomial",
    "poly_first_mismatch",
    "poly_to_series",
    "series_first_mismatch",
    "series_inverse",
    "__version__",
]
