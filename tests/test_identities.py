"""Tests for the Rogers-Ramanujan products and the m-shifted identity."""

from __future__ import annotations

import random
import sys
from functools import lru_cache
from math import comb

import pytest

from qschur import identities, schur
from qschur.determinant import schur_x1_series
from qschur.schur import TooLargeError
from qschur.identities import (
    _refuse_gis,
    gis_rhs,
    rr_product_first,
    rr_product_second,
    verify_gis,
    verify_schur_limits,
)
from qschur.series import QSeries, series_first_mismatch

from .oracles import casoratian_gis_rhs, prefix_sum_product, rr_coefficients

RR1_COEFFS = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9]
RR2_COEFFS = [1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6]


@lru_cache(maxsize=None)
def _oracle(residues: frozenset[int], order: int) -> QSeries:
    return prefix_sum_product(residues, order)


class TestProducts:
    def test_first_product_low_orders(self):
        assert rr_product_first(0) == QSeries.one(0)
        s = rr_product_first(7)
        assert [s.coefficient(e) for e in range(8)] == RR1_COEFFS[:8]
        s = rr_product_first(4)
        assert [s.coefficient(e) for e in range(5)] == RR1_COEFFS[:5]

    def test_second_product_low_orders(self):
        assert rr_product_second(0) == QSeries.one(0)
        assert rr_product_second(1) == QSeries.one(1)
        s = rr_product_second(6)
        assert [s.coefficient(e) for e in range(7)] == RR2_COEFFS[:7]

    def test_frozen_coefficient_tables(self):
        s1, s2 = rr_product_first(12), rr_product_second(12)
        assert [s1.coefficient(e) for e in range(13)] == RR1_COEFFS
        assert [s2.coefficient(e) for e in range(13)] == RR2_COEFFS

    def test_against_partition_oracle(self):
        s1, s2 = rr_product_first(300), rr_product_second(300)
        assert [s1.coefficient(e) for e in range(301)] == rr_coefficients(
            {1, 4}, 300
        )
        assert [s2.coefficient(e) for e in range(301)] == rr_coefficients(
            {2, 3}, 300
        )

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            rr_product_first(-1)
        with pytest.raises(ValueError):
            rr_product_second(-3)

    @pytest.mark.parametrize("sequence", ["ascending", "descending", "shuffled"])
    def test_matches_prefix_sum_oracle_in_any_request_order(
        self, sequence, fresh_products
    ):
        """Every order 0..60 and 2000, each product from empty coefficient lists."""
        orders = list(range(61)) + [2000]
        if sequence == "descending":
            orders.reverse()
        elif sequence == "shuffled":
            random.Random(7).shuffle(orders)
        for order in orders:
            assert rr_product_first(order) == _oracle(frozenset({1, 4}), order)
            assert rr_product_second(order) == _oracle(frozenset({2, 3}), order)
        assert [len(c) for c in identities._products.values()] == [2001, 2001]

    def test_size_bound_holds_and_refuses_before_building(self, fresh_products):
        """The bound from ``p(k) < exp(pi sqrt(2k/3))`` is above the list's
        real size, lets through the orders ``verify_gis(200, 10)`` and ``m =
        0..20`` at order 1000 ask for, and refuses order 10^7 with nothing
        built."""
        rr_product_first(3000)
        held = identities._products[1]
        real = sys.getsizeof(held) + sum(map(sys.getsizeof, held))
        assert real <= identities._product_bytes(3000) < 2 * real
        for order in (10 + comb(200, 2), 1000 + comb(20, 2)):
            assert identities._product_bytes(order) <= schur.TABLE_BUDGET_BYTES
        fresh_products()
        for refuse in (rr_product_first, rr_product_second):
            with pytest.raises(TooLargeError, match="bytes"):
                refuse(10**7)
        assert identities._products == {1: [], 2: []}

    def test_truncation_consistency(self):
        """A deeper product truncates to exactly the shallower one."""
        assert rr_product_first(80).truncated(30) == rr_product_first(30)
        assert rr_product_second(80).truncated(30) == rr_product_second(30)


class TestRightHandSide:
    def test_m0_is_first_product(self):
        assert series_first_mismatch(gis_rhs(0, 4), rr_product_first(4), 4) is None

    def test_m1_is_second_product(self):
        assert series_first_mismatch(gis_rhs(1, 5), rr_product_second(5), 5) is None

    @pytest.mark.parametrize("order", [0, 1, 5, 37, 160, 400])
    def test_matches_the_casoratian_form(self, order):
        """``lambda(m) P1 + mu(m) P2`` equals the Casoratian form, window and
        printed form included, and is known exactly through ``order``."""
        for m in range(41):
            got, want = gis_rhs(m, order), casoratian_gis_rhs(m, order)
            assert got == want and str(got) == str(want), m
            assert got.order == order, m

    @pytest.mark.parametrize("order", [0, 50])
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 30])
    def test_products_run_to_the_top_the_refusal_checks(
        self, m, order, fresh_products
    ):
        """The pre-flight check returns ``order + C(m, 2)``, and the product
        side builds both products through exactly that top, from empty
        lists, so the two cannot disagree."""
        top = _refuse_gis(m, order)
        assert top == order + comb(m, 2)
        gis_rhs(m, order)
        assert [len(c) for c in identities._products.values()] == [top + 1] * 2

    def test_m2_assembled_by_hand(self):
        # q^-1 * (E_0 * P1 - D_0 * P2) = q^-1 * (P1 - P2), truncated at 6.
        got = gis_rhs(2, 6)
        assert [got.coefficient(e) for e in range(7)] == [1, 0, 0, 1, 1, 1, 1]

    def test_lhs_examples(self):
        s = schur_x1_series(0, 4)
        assert [s.coefficient(e) for e in range(5)] == [1, 1, 1, 1, 2]
        s = schur_x1_series(1, 5)
        assert [s.coefficient(e) for e in range(6)] == [1, 0, 1, 1, 1, 1]
        for m in range(4):
            assert schur_x1_series(m, 0) == QSeries.one(0)

    def test_lhs_coefficients_nonnegative(self):
        for m in range(0, 12):
            s = schur_x1_series(m, 50)
            assert all(s.coefficient(e) >= 0 for e in range(51))


class TestVerifyGis:
    def test_classical_specializations(self):
        assert verify_gis(0, 100).passed
        assert verify_gis(1, 100).passed

    def test_deep_shift(self):
        assert verify_gis(7, 150).passed

    def test_order_1000_all_shifts(self):
        """m = 0..20 at order 1000 takes well under a second; a return to
        quadratic product or division arithmetic makes this test slow."""
        for m in range(20, -1, -1):
            assert verify_gis(m, 1000).passed, m

    def test_ascending_shifts_build_each_coefficient_once(self, fresh_products):
        """Orders 1000 + C(m, 2) rise with m; each request appends only the
        coefficients past the held length, and a later pass appends none."""
        size = 1000 + comb(20, 2) + 1
        ascending = {m: (verify_gis(m, 1000), gis_rhs(m, 1000)) for m in range(21)}
        assert [len(c) for c in identities._products.values()] == [size, size]
        descending = {
            m: (verify_gis(m, 1000), gis_rhs(m, 1000)) for m in range(20, -1, -1)
        }
        assert [len(c) for c in identities._products.values()] == [size, size]
        assert ascending == descending
        assert all(report.passed for report, _ in ascending.values())

    def test_over_budget_shift_refused_before_any_series(
        self, monkeypatch, fresh_tables, fresh_products
    ):
        """``D_437`` is the first entry over the table budget, so m = 439 is
        the first shift refused; the refusal comes before ``E``'s table,
        either product or the sum side is built."""

        def unreachable(*args):
            raise AssertionError("built a series for a refused shift")

        monkeypatch.setattr(identities, "_rr_product", unreachable)
        monkeypatch.setattr(identities, "schur_x1_series", unreachable)
        for m in (439, 440, 1000):
            with pytest.raises(TooLargeError):
                verify_gis(m, 10)
            assert ("E", 0) not in schur._tables, m
        assert identities._products == {1: [], 2: []}

    def test_report_fields(self):
        report = verify_gis(3, 40)
        assert report.label == "gis"
        assert report.params == {"m": 3, "order": 40}
        assert report.passed


class TestSchurLimits:
    def test_first_checkable_index(self):
        result = verify_schur_limits(2)
        assert result.all_passed
        assert len(result.reports) == 2
        assert {r.label for r in result.reports} == {
            "schur-limit-D",
            "schur-limit-E",
        }

    def test_deeper_indices(self):
        assert verify_schur_limits(30).all_passed
        assert verify_schur_limits(100).all_passed

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            verify_schur_limits(1)
