"""The package's public names: pinned, and built from the modules' ``__all__``."""

from __future__ import annotations

import qschur
from qschur import determinant, identities, packed, reports, schur, series

PUBLIC = {
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
}
MODULES = (determinant, identities, reports, schur, series)


def test_public_name_set_is_pinned():
    assert len(PUBLIC) == 36
    assert len(qschur.__all__) == len(set(qschur.__all__)) == 36
    assert set(qschur.__all__) == PUBLIC


def test_packed_digit_module_exports_nothing():
    """The packed-digit format is internal: ``qschur.packed`` lists no name,
    and the package's names are the pinned 36."""
    assert packed.__all__ == []
    assert set(qschur.__all__) == PUBLIC and "packed" not in qschur.__all__


def test_exports_are_the_modules_lists():
    """Each public name is listed once, in the module that defines it, and
    the package binds the same object."""
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert set(listed) | {"__version__"} == PUBLIC
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(qschur, name) is value, name
            home = getattr(value, "__module__", module.__name__)
            assert home == module.__name__, name


def test_star_import_gives_the_public_names():
    namespace: dict = {}
    exec("from qschur import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
