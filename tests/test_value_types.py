"""The value-type contract of the five immutable records.

``LaurentPoly``, ``QSeries``, ``Mismatch``, ``VerificationReport`` and
``CheckSuiteResult`` compare by value within their own class only, hash
consistently with equality, refuse assignment and deletion of their fields,
and survive ``pickle`` and ``copy``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from qschur.reports import CheckSuiteResult, Mismatch, VerificationReport
from qschur.series import LaurentPoly, QSeries


def _report(label: str = "gis", m: int = 3) -> VerificationReport:
    return VerificationReport(
        label=label, params={"m": m, "order": 40}, mismatch=Mismatch(7, 2, -1)
    )


# Per class: a factory for one value (called twice gives two equal, distinct
# objects), a different value of the same class, and the field names.
CASES = {
    "LaurentPoly": (
        lambda: LaurentPoly(-1, (2, 0, 5)),
        LaurentPoly(-1, (2, 0, 6)),
        ("min_exp", "coeffs"),
    ),
    "QSeries": (
        lambda: QSeries(6, 1, (1, 0, 3, 0, 0, 2)),
        QSeries(7, 1, (1, 0, 3, 0, 0, 2, 0)),
        ("order", "min_exp", "coeffs"),
    ),
    "Mismatch": (
        lambda: Mismatch(4, 10, -3),
        Mismatch(4, 10, -2),
        ("exponent", "lhs", "rhs"),
    ),
    "VerificationReport": (
        _report,
        _report(m=4),
        ("label", "params", "mismatch"),
    ),
    "CheckSuiteResult": (
        lambda: CheckSuiteResult(reports=(_report("a"), _report("b"))),
        CheckSuiteResult(reports=(_report("a"),)),
        ("reports",),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


class TestEquality:
    def test_equal_values_are_equal(self, case):
        make, other, _ = case
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert a != other and not a == other

    def test_equality_is_within_one_class(self, case):
        make, _, fields = case
        value = make()
        as_tuple = tuple(getattr(value, f) for f in fields)
        assert value != as_tuple
        assert as_tuple != value
        assert type(value).__eq__(value, as_tuple) is NotImplemented

    def test_no_tuple_equality_for_mismatch(self):
        assert Mismatch(1, 2, 3) != (1, 2, 3)
        assert (1, 2, 3) != Mismatch(1, 2, 3)

    def test_polynomial_and_series_never_equal(self):
        poly = LaurentPoly(0, (1, 1))
        series = QSeries(1, 0, (1, 1))
        assert (poly.min_exp, poly.coeffs) == (series.min_exp, series.coeffs)
        assert poly != series and series != poly


class TestHash:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: LaurentPoly(0, (1, 2)),
            lambda: QSeries.zero(5),
            lambda: QSeries(6, 1, (1, 0, 3, 0, 0, 2)),
            lambda: Mismatch(0, 1, 2),
            lambda: CheckSuiteResult(reports=()),
        ],
    )
    def test_equal_values_hash_equal(self, make):
        a, b = make(), make()
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_reports_holding_a_dict_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(_report())
        with pytest.raises(TypeError):
            hash(VerificationReport("x"))
        with pytest.raises(TypeError):
            hash(CheckSuiteResult(reports=(_report(),)))


class TestImmutability:
    def test_assigning_a_field_raises(self, case):
        make, _, fields = case
        value = make()
        for name in fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            assert getattr(value, name) is before

    def test_deleting_a_field_raises(self, case):
        make, _, fields = case
        value = make()
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert value == make()

    def test_new_attributes_are_refused(self, case):
        make, _, _ = case
        with pytest.raises(AttributeError):
            make().extra = 1


class TestCopying:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, case, protocol):
        make, _, _ = case
        value = make()
        back = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert type(back) is type(value)
        assert back == value

    def test_copy_and_deepcopy(self, case):
        make, _, _ = case
        value = make()
        assert copy.copy(value) == value
        deep = copy.deepcopy(value)
        assert type(deep) is type(value)
        assert deep == value

    def test_deepcopy_does_not_share_params(self):
        report = _report()
        deep = copy.deepcopy(report)
        assert deep.params == report.params
        assert deep.params is not report.params

    def test_round_trip_keeps_normalization(self):
        poly = pickle.loads(pickle.dumps(LaurentPoly(-2, (0, 0, 1, 4, 0))))
        assert (poly.min_exp, poly.coeffs) == (0, (1, 4))
        series = copy.deepcopy(QSeries(5, 2, (0, 0, 3, 0)))
        assert (series.order, series.min_exp, series.coeffs) == (5, 4, (3, 0))


class TestConstruction:
    def test_keyword_constructors(self):
        assert LaurentPoly(min_exp=1, coeffs=(2,)) == LaurentPoly(1, (2,))
        assert QSeries(order=2, min_exp=0, coeffs=(1, 0, 1)) == QSeries(2, 0, (1, 0, 1))
        assert Mismatch(exponent=1, lhs=2, rhs=3) == Mismatch(1, 2, 3)
        assert VerificationReport(label="x", params={"m": 0}) == VerificationReport(
            "x", {"m": 0}, None
        )
        assert CheckSuiteResult(reports=()) == CheckSuiteResult(())

    def test_params_default_is_a_fresh_dict(self):
        first, second = VerificationReport("x"), VerificationReport("x")
        assert first.params == {} and first.mismatch is None
        assert first.params is not second.params
        first.params["m"] = 1
        assert second.params == {}
        assert VerificationReport("x").params == {}


class TestRepr:
    def test_mismatch(self):
        assert repr(Mismatch(5, 3, -4)) == "Mismatch(exponent=5, lhs=3, rhs=-4)"

    def test_verification_report(self):
        assert repr(_report()) == (
            "VerificationReport(label='gis', params={'m': 3, 'order': 40}, "
            "mismatch=Mismatch(exponent=7, lhs=2, rhs=-1))"
        )
        assert repr(VerificationReport("x")) == (
            "VerificationReport(label='x', params={}, mismatch=None)"
        )

    def test_check_suite_result(self):
        suite = CheckSuiteResult(reports=(VerificationReport("x"),))
        assert repr(suite) == (
            "CheckSuiteResult(reports=(VerificationReport(label='x', params={}, "
            "mismatch=None),))"
        )

    def test_polynomial_and_series_keep_their_sum_notation(self):
        assert repr(LaurentPoly(-1, (1, 0, -2))) == "LaurentPoly('q^-1 - 2q')"
        assert repr(QSeries(2, 0, (1, 1, 0))) == "QSeries('1 + q + O(q^3)')"
