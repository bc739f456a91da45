"""Tests for the verification report value types."""

from __future__ import annotations

import json

from qschur.reports import (
    CheckSuiteResult,
    Mismatch,
    VerificationReport,
    compare_polys,
    compare_series,
)
from qschur.series import ONE, Q, QSeries, monomial, poly_to_series


def passing(label: str = "demo") -> VerificationReport:
    return VerificationReport(label=label, params={"m": 1}, mismatch=None)


def failing(label: str = "demo") -> VerificationReport:
    return VerificationReport(
        label=label, params={"m": 1}, mismatch=Mismatch(5, 3, -4)
    )


class TestVerificationReport:
    def test_status_iff_mismatch(self):
        assert passing().status == "pass" and passing().passed
        assert failing().status == "fail" and not failing().passed

    def test_text_forms(self):
        assert passing().to_text() == "demo m=1: pass"
        assert failing().to_text() == "demo m=1: fail at q^5: lhs=3 rhs=-4"

    def test_json_shapes(self):
        assert passing().to_json_obj() == {
            "label": "demo",
            "params": {"m": 1},
            "status": "pass",
        }
        assert failing().to_json_obj() == {
            "label": "demo",
            "params": {"m": 1},
            "status": "fail",
            "mismatch": {"exponent": 5, "lhs": "3", "rhs": "-4"},
        }

    def test_json_serializable(self):
        suite = CheckSuiteResult(reports=(passing(), failing()))
        for obj in (failing().to_json_obj(), suite.to_json_obj()):
            assert json.loads(json.dumps(obj)) == obj
        reports = [passing().to_json_obj(), failing().to_json_obj()]
        assert suite.to_json_obj() == {"reports": reports, "all_passed": False}


class TestCheckSuiteResult:
    def test_all_passed_iff_every_report_passes(self):
        assert CheckSuiteResult(reports=(passing(), passing())).all_passed
        assert not CheckSuiteResult(reports=(passing(), failing())).all_passed
        assert CheckSuiteResult(reports=()).all_passed

    def test_text_is_one_line_per_report(self):
        suite = CheckSuiteResult(reports=(passing("a"), failing("b")))
        assert suite.to_text().splitlines() == [
            "a m=1: pass",
            "b m=1: fail at q^5: lhs=3 rhs=-4",
        ]


class TestCompareSeries:
    def test_equal_series_pass(self):
        a = poly_to_series(ONE + monomial(2, 3), 5)
        report = compare_series("eq", {"k": 0}, a, a, 5)
        assert report.passed
        assert report.mismatch is None

    def test_detects_first_difference(self):
        a = QSeries.one(4)
        b = poly_to_series(ONE + monomial(1, 2) + monomial(9, 4), 4)
        report = compare_series("diff", {"k": 0}, a, b, 4)
        assert not report.passed
        assert report.mismatch == Mismatch(2, 0, 1)


class TestComparePolys:
    def test_equal_polys_pass(self):
        report = compare_polys("eq", {"n": 1}, ONE + Q, ONE + Q)
        assert report == VerificationReport(label="eq", params={"n": 1})

    def test_detects_first_difference(self):
        report = compare_polys("diff", {"n": 1}, ONE + Q, monomial(-1, -2) + ONE)
        assert report.mismatch == Mismatch(-2, 0, -1)
        assert report.to_text() == "diff n=1: fail at q^-2: lhs=0 rhs=-1"
