"""Outcome records for identity checks, serializable to text and JSON."""

from __future__ import annotations

from .series import LaurentPoly, QSeries, _Record
from .series import poly_first_mismatch, series_first_mismatch

__all__ = ["Mismatch", "VerificationReport", "CheckSuiteResult", "compare_series"]


class Mismatch(_Record):
    """The first exponent at which two sides of a check disagree."""

    __slots__ = ("exponent", "lhs", "rhs")

    def __init__(self, exponent: int, lhs: int, rhs: int):
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class VerificationReport(_Record):
    """Outcome of a single identity check.

    ``status`` is "fail" exactly when a mismatch is present; ``params`` keeps
    its insertion order for deterministic rendering, and defaults to a fresh
    empty dict.
    """

    __slots__ = ("label", "params", "mismatch")

    def __init__(
        self,
        label: str,
        params: dict[str, int] | None = None,
        mismatch: Mismatch | None = None,
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "params", {} if params is None else params)
        object.__setattr__(self, "mismatch", mismatch)

    @property
    def passed(self) -> bool:
        return self.mismatch is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_text(self) -> str:
        head = " ".join([self.label] + [f"{k}={v}" for k, v in self.params.items()])
        if self.passed:
            return f"{head}: pass"
        mm = self.mismatch
        return f"{head}: fail at q^{mm.exponent}: lhs={mm.lhs} rhs={mm.rhs}"

    def to_json_obj(self) -> dict:
        obj: dict = {
            "label": self.label,
            "params": dict(self.params),
            "status": self.status,
        }
        if self.mismatch is not None:
            # Coefficients as decimal strings: consumers need no big integers.
            obj["mismatch"] = {
                "exponent": self.mismatch.exponent,
                "lhs": str(self.mismatch.lhs),
                "rhs": str(self.mismatch.rhs),
            }
        return obj


class CheckSuiteResult(_Record):
    """Aggregate of reports over a parameter range."""

    __slots__ = ("reports",)

    def __init__(self, reports: tuple[VerificationReport, ...]):
        object.__setattr__(self, "reports", reports)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_text(self) -> str:
        return "\n".join(r.to_text() for r in self.reports)

    def to_json_obj(self) -> dict:
        return {
            "reports": [r.to_json_obj() for r in self.reports],
            "all_passed": self.all_passed,
        }


def _report(
    label: str, params: dict[str, int], found: tuple[int, int, int] | None
) -> VerificationReport:
    """The report of a comparison that found ``found``, a first mismatch or None."""
    mismatch = None if found is None else Mismatch(*found)
    return VerificationReport(label=label, params=params, mismatch=mismatch)


def compare_series(
    label: str,
    params: dict[str, int],
    lhs: QSeries,
    rhs: QSeries,
    up_to: int,
) -> VerificationReport:
    """Build a report from a coefficient-by-coefficient series comparison."""
    return _report(label, params, series_first_mismatch(lhs, rhs, up_to))


def compare_polys(
    label: str, params: dict[str, int], lhs: LaurentPoly, rhs: LaurentPoly
) -> VerificationReport:
    """Build a report from an exact comparison of two Laurent polynomials."""
    return _report(label, params, poly_first_mismatch(lhs, rhs))
