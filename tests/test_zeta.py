from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclocal.elliptic import WeierstrassModel, classify_reduction, count_nonsingular, reduce_mod_p
from nclocal.zeta import (
    TruncatedSeries,
    curve_local_zeta,
    dirichlet_coefficients,
    euler_factor_polynomial,
    lemma1_check,
    series_exp,
    series_log,
    torus_local_zeta,
)

E_MINUS_X = WeierstrassModel.over_q(0, 0, 0, -1, 0)
E_PLUS_1 = WeierstrassModel.over_q(0, 0, 0, 0, 1)

GOOD_PRIMES_50 = {
    E_MINUS_X: [p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)],
    E_PLUS_1: [p for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)],
}


def geometric(ratio, order):
    return TruncatedSeries(tuple(Fraction(ratio) ** n for n in range(order + 1)))


class TestSeriesArithmetic:
    def test_exp_of_zero(self):
        z = TruncatedSeries.zero(4)
        assert series_exp(z) == TruncatedSeries.one(4)

    def test_exp_of_z(self):
        s = TruncatedSeries.from_list([0, 1], 3)
        assert series_exp(s).coefficients == (1, 1, Fraction(1, 2), Fraction(1, 6))

    def test_exp_of_harmonic_is_geometric(self):
        s = TruncatedSeries.from_list([0] + [Fraction(1, n) for n in range(1, 5)], 4)
        assert series_exp(s) == geometric(1, 4)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp(TruncatedSeries.one(3))

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError):
            series_log(TruncatedSeries.zero(3))

    def test_mul_reciprocal(self):
        s = TruncatedSeries.from_list([1, -3, 2, 5], 5)
        assert s * s.reciprocal() == TruncatedSeries.one(5)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(3) + TruncatedSeries.one(4)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=7),
            min_size=5,
            max_size=5,
        )
    )
    def test_exp_log_round_trip(self, tail):
        s = TruncatedSeries(tuple([Fraction(0)] + tail))
        assert series_log(series_exp(s)) == s

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=5), min_size=4, max_size=4),
        st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=5), min_size=4, max_size=4),
    )
    def test_exp_is_homomorphism(self, t1, t2):
        a = TruncatedSeries(tuple([Fraction(0)] + t1))
        b = TruncatedSeries(tuple([Fraction(0)] + t2))
        assert series_exp(a + b) == series_exp(a) * series_exp(b)


class TestCurveZeta:
    def test_p3_minus_x(self):
        s = curve_local_zeta(E_MINUS_X, 3, 3)
        # (1+3z^2)/((1-z)(1-3z)) expanded by hand: 1, 4, 16, 52
        assert s.coefficients == (1, 4, 16, 52)

    def test_p5_minus_x_closed_form(self):
        s = curve_local_zeta(E_MINUS_X, 5, 4)
        numer = TruncatedSeries.from_list([1, 2, 5], 4)
        denom = TruncatedSeries.from_list([1, -6, 5], 4)
        assert s == numer * denom.reciprocal()

    def test_constant_term_is_one(self):
        for p in (3, 5, 7, 11):
            assert curve_local_zeta(E_MINUS_X, p, 5).coefficients[0] == 1

    def test_rational_form_all_good_primes(self):
        for e, primes in GOOD_PRIMES_50.items():
            for p in primes:
                s = curve_local_zeta(e, p, 6)
                from nclocal.elliptic import trace_of_frobenius

                ap = trace_of_frobenius(reduce_mod_p(e, p))
                numer = TruncatedSeries.from_list(euler_factor_polynomial(ap, p), 6)
                denom = TruncatedSeries.from_list([1, -(p + 1), p], 6)
                assert s == numer * denom.reciprocal()

    def test_bad_prime_counts_nonsingular_points(self):
        # exp-sum over p^n - alpha^n must reproduce brute-force smooth counts
        red = reduce_mod_p(E_MINUS_X, 2)
        rt = classify_reduction(red)
        for n in (1, 2, 3):
            assert count_nonsingular(red, n) == 2**n - rt.alpha**n


class TestTorusZeta:
    def test_matches_curve_at_p3(self):
        assert torus_local_zeta(3, 3, good=True, trace_ap=0) == curve_local_zeta(E_MINUS_X, 3, 3)

    def test_alpha_zero_constant_one(self):
        for k in (1, 3, 6, 9):
            assert torus_local_zeta(11, k, good=False, alpha=0) == TruncatedSeries.one(k)

    def test_alpha_one_geometric(self):
        assert torus_local_zeta(11, 3, good=False, alpha=1) == geometric(1, 3)

    def test_alpha_minus_one_modes(self):
        absolute = torus_local_zeta(11, 4, good=False, alpha=-1)
        signed = torus_local_zeta(11, 4, good=False, alpha=-1, mode="signed")
        assert absolute == geometric(1, 4)
        assert signed == geometric(-1, 4)
        assert absolute.first_mismatch(signed) == 1

    def test_signed_equals_absolute_at_good_prime_with_true_ap(self):
        s1 = torus_local_zeta(7, 5, good=True, trace_ap=-4)
        s2 = torus_local_zeta(7, 5, good=True, trace_ap=-4, mode="signed")
        assert s1 == s2

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            torus_local_zeta(7, 3, good=True, trace_ap=0, mode="weird")


class TestLemma1Check:
    def test_identity_mode_matches_on_good_primes(self):
        reports = lemma1_check(E_MINUS_X, [3, 5, 7, 11, 13], 4)
        assert all(r.verdict == "match" for r in reports)
        assert all(r.first_mismatch is None for r in reports)

    def test_supersingular_prime(self):
        (report,) = lemma1_check(E_PLUS_1, [5], 4)
        assert report.good and report.verdict == "match"

    def test_bad_prime_reports_both_modes(self):
        (report,) = lemma1_check(E_MINUS_X, [2], 4)
        assert not report.good and report.alpha == 0
        assert report.torus_series_signed is not None
        assert report.torus_series == TruncatedSeries.one(4)

    def test_exploration_mode_reports_without_guarantee(self):
        reports = lemma1_check(E_MINUS_X, [3, 5], 4, period=[2, 1])
        # tr(A^p) of the [2,1] incidence matrix is not a_p, so mismatches appear
        assert {r.verdict for r in reports} == {"mismatch"}

    def test_curve_side_equals_curve_local_zeta(self):
        # bad primes 2 and 3, good ones on both sides of the fast a_p path
        primes = [2, 3, 5, 227, 229, 233, 10007]
        for r in lemma1_check(E_PLUS_1, primes, 5):
            assert r.curve_series == curve_local_zeta(E_PLUS_1, r.p, 5)

    def test_json_schema_keys(self):
        (good_rep,) = lemma1_check(E_MINUS_X, [5], 3)
        d = good_rep.to_json_dict()
        assert set(d) == {"p", "good", "curve_coeffs", "torus_coeffs", "verdict"}
        (bad_rep,) = lemma1_check(E_MINUS_X, [2], 3)
        d2 = bad_rep.to_json_dict()
        assert {"alpha", "torus_signed_coeffs", "first_mismatch"} <= set(d2)


class TestDirichlet:
    def test_normalization(self):
        coeffs = dict(dirichlet_coefficients(E_MINUS_X, 30))
        assert coeffs[1] == 1

    def test_c5_is_ap(self):
        coeffs = dict(dirichlet_coefficients(E_MINUS_X, 30))
        assert coeffs[5] == -2

    def test_multiplicativity_good_primes(self):
        coeffs = dict(dirichlet_coefficients(E_PLUS_1, 100))
        assert coeffs[7] == -4
        assert coeffs[91] == coeffs[7] * coeffs[13]
        assert coeffs[35] == coeffs[5] * coeffs[7]

    def test_prime_power_recurrence(self):
        coeffs = dict(dirichlet_coefficients(E_MINUS_X, 130))
        # c_{p^2} = a_p^2 - p at good p
        assert coeffs[25] == (-2) ** 2 - 5
        assert coeffs[9] == 0**2 - 3
        assert coeffs[125] == coeffs[5] * coeffs[25] - 5 * coeffs[5]

    def test_additive_prime_kills_multiples(self):
        coeffs = dict(dirichlet_coefficients(E_MINUS_X, 40))
        assert all(coeffs[m] == 0 for m in range(2, 41, 2))

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            dirichlet_coefficients(E_MINUS_X, 10**5)

    def test_unclassifiable_prime_skipped_with_warning(self, monkeypatch):
        import warnings

        import nclocal.zeta as zeta_mod
        from nclocal.elliptic import UnclassifiableReductionError

        real = zeta_mod.classify_reduction

        def flaky(red):
            if red.field.p == 2:
                raise UnclassifiableReductionError("synthetic degenerate case")
            return real(red)

        monkeypatch.setattr(zeta_mod, "classify_reduction", flaky)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coeffs = dict(dirichlet_coefficients(E_MINUS_X, 20))
        assert any("skipping p=2" in str(w.message) for w in caught)
        assert coeffs[2] == 0 and coeffs[4] == 0
        assert coeffs[5] == -2  # good primes unaffected


class TestLocalData:
    def test_good_prime(self):
        from nclocal.elliptic import trace_of_frobenius
        from nclocal.zeta import local_data

        local = local_data(E_MINUS_X, 5)
        assert local.p == 5 and local.reduction.is_good
        assert local.a_p == trace_of_frobenius(local.reduced) == -2
        assert local.point_counts(3) == [8, 32, 104]

    def test_bad_prime(self):
        from nclocal.zeta import local_data

        local = local_data(WeierstrassModel.over_q(0, 2, 0, 0, 0), 5)  # non-split node
        assert local.a_p is None and local.reduction.alpha == -1
        assert local.point_counts(3) == [5 + 1, 25 - 1, 125 + 1]
        assert local.point_counts(1) == [count_nonsingular(local.reduced, 1)]

    def test_rational_form_check_raises(self, monkeypatch):
        import nclocal.zeta as zeta_mod

        monkeypatch.setattr(zeta_mod, "euler_factor_polynomial", lambda ap, p: [1, -ap + 1, p])
        with pytest.raises(RuntimeError, match="exp-sum and rational form disagree at p=5"):
            curve_local_zeta(E_MINUS_X, 5, 3)
