"""Exact q-series arithmetic for the Rogers-Ramanujan circle of identities.

Everything is integer-exact: Laurent polynomials and truncated power series
over the integers, Schur's polynomial solutions of the Rogers-Ramanujan
recurrence, the finite Schur determinant, and coefficient-by-coefficient
verification of the Garrett-Ismail-Stanton generalization.

The package exports exactly the names in each module's ``__all__``.
"""

from . import determinant, identities, reports, schur, series
from .determinant import *  # noqa: F403
from .identities import *  # noqa: F403
from .reports import *  # noqa: F403
from .schur import *  # noqa: F403
from .series import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *determinant.__all__,
    *identities.__all__,
    *reports.__all__,
    *schur.__all__,
    *series.__all__,
    "__version__",
]
