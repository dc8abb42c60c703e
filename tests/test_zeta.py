import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclocal.ck_k0 import epsilons
from nclocal.elliptic import (
    LocalData,
    WeierstrassModel,
    classify_reduction,
    count_nonsingular,
    local_data,
    reduce_mod_p,
)
from nclocal.ffield import PrimeField
from nclocal.functor import localize
from nclocal.intmat import mat_pow
from nclocal.quadratic_cf import incidence_matrix
from nclocal.zeta import TruncatedSeries, dirichlet_coefficients, euler_factor_polynomial, lemma1_check
from nclocal.zeta import _curve_series, _exp_counts

from field_oracle import at_level
from zeta_oracle import curve_local_zeta, series, series_add, series_exp, series_log, torus_local_zeta

E_MINUS_X = WeierstrassModel.over_q(0, 0, 0, -1, 0)
E_PLUS_1 = WeierstrassModel.over_q(0, 0, 0, 0, 1)

GOOD_PRIMES_50 = {
    E_MINUS_X: [p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)],
    E_PLUS_1: [p for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)],
}


def geometric(ratio, order):
    return TruncatedSeries(tuple(Fraction(ratio) ** n for n in range(order + 1)))


class TestSeriesArithmetic:
    def test_coefficients_become_fractions_once(self):
        half = Fraction(1, 2)
        s = TruncatedSeries((1, half, "3/4", 0.5))
        assert s.coefficients == (1, half, Fraction(3, 4), half)
        assert all(type(c) is Fraction for c in s.coefficients)
        # a Fraction is kept, not copied
        assert s.coefficients[1] is half

    def test_exp_of_zero(self):
        z = series([], 4)
        assert series_exp(z) == series([1], 4)

    def test_exp_of_z(self):
        s = series([0, 1], 3)
        assert series_exp(s).coefficients == (1, 1, Fraction(1, 2), Fraction(1, 6))

    def test_exp_of_harmonic_is_geometric(self):
        s = series([0] + [Fraction(1, n) for n in range(1, 5)], 4)
        assert series_exp(s) == geometric(1, 4)

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp(series([1], 3))

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError):
            series_log(series([], 3))

    def test_mul_reciprocal(self):
        s = series([1, -3, 2, 5], 5)
        assert s * s.reciprocal() == series([1], 5)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="truncation orders differ"):
            series([1], 3) * series([1], 4)

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
        assert series_exp(series_add(a, b)) == series_exp(a) * series_exp(b)


class TestExpCounts:
    """The integer recurrence of _exp_counts against series_exp, its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.lists(st.integers(-(10**6), 10**6), max_size=14))
    @example(12, [1])  # exp(z): coefficients 1/n!
    @example(12, [-3, 5, -7, 0, 2])  # neither a count sequence nor integral exp
    @example(5, [])
    def test_matches_series_exp(self, order, counts):
        logs = [0] + [Fraction(c, n) for n, c in enumerate(counts[:order], 1)]
        assert _exp_counts(counts, order) == series_exp(series(logs, order))

    def test_non_integral_coefficients_stay_exact(self):
        assert _exp_counts([1], 4).coefficients == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))
        assert _exp_counts([-1, 1], 3).coefficients == (1, -1, 1, Fraction(-2, 3))


class TestCurveZeta:
    def test_p3_minus_x(self):
        s = curve_local_zeta(E_MINUS_X, 3, 3)
        # (1+3z^2)/((1-z)(1-3z)) expanded by hand: 1, 4, 16, 52
        assert s.coefficients == (1, 4, 16, 52)

    def test_p5_minus_x_closed_form(self):
        s = curve_local_zeta(E_MINUS_X, 5, 4)
        numer = series([1, 2, 5], 4)
        denom = series([1, -6, 5], 4)
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
                numer = series(euler_factor_polynomial(ap, p), 6)
                denom = series([1, -(p + 1), p], 6)
                assert s == numer * denom.reciprocal()

    def test_bad_prime_counts_nonsingular_points(self):
        # exp-sum over p^n - alpha^n must reproduce brute-force smooth counts
        red = reduce_mod_p(E_MINUS_X, 2)
        rt = classify_reduction(red)
        for n in (1, 2, 3):
            assert count_nonsingular(at_level(red, n)) == 2**n - rt.alpha**n


class TestTorusZeta:
    def test_matches_curve_at_p3(self):
        assert torus_local_zeta(3, 3, good=True, trace_ap=0) == curve_local_zeta(E_MINUS_X, 3, 3)

    def test_alpha_zero_constant_one(self):
        for k in (1, 3, 6, 9):
            assert torus_local_zeta(11, k, good=False, alpha=0) == series([1], k)

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
        assert report.torus_series == series([1], 4)

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


class TestLemma1AgainstOracle:
    """lemma1_check's torus side against the IntMatrix-product oracle."""

    PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 10007]

    @pytest.mark.parametrize("mode", ["absolute", "signed"])
    @pytest.mark.parametrize("period", [None, [2, 1], [1], [3, 1, 2]])
    def test_torus_series_and_verdict(self, mode, period):
        shared = built = 0
        for e in (E_MINUS_X, E_PLUS_1):
            for r in lemma1_check(e, self.PRIMES, 7, period=period, mode=mode):
                if r.good:
                    trace = local_data(e, r.p).a_p if period is None else mat_pow(incidence_matrix(period), r.p).trace()
                    compared = torus_local_zeta(r.p, 7, good=True, trace_ap=trace, mode=mode)
                    assert r.torus_series == compared and r.torus_series_signed is None
                else:
                    absolute = torus_local_zeta(r.p, 7, good=False, alpha=r.alpha)
                    signed = torus_local_zeta(r.p, 7, good=False, alpha=r.alpha, mode="signed")
                    assert r.torus_series == absolute and r.torus_series_signed == signed
                    compared = signed if mode == "signed" else absolute
                # equal exp series are equal counts: the curve series is shared exactly then
                assert (r.torus_series is r.curve_series) == (r.good and compared == r.curve_series)
                assert r.first_mismatch == r.curve_series.first_mismatch(compared)
                assert r.verdict == ("match" if r.first_mismatch is None else "mismatch")
                shared += r.torus_series is r.curve_series
                built += r.good and r.torus_series is not r.curve_series
        # identity mode shares at every good prime; exploration mode builds at every one
        assert (shared, built) == ((29, 0) if period is None else (0, 29))

    @pytest.mark.parametrize(
        "coefficients, p, alpha",
        [([0, 1, 0, 5, 5], 5, 1), ([0, 0, 0, 0, 1], 3, 0), ([0, -4, 0, 0, 7], 7, -1)],
    )
    def test_bad_prime_builds_the_signed_series_only_for_alpha_minus_one(self, coefficients, p, alpha):
        (r,) = lemma1_check(WeierstrassModel.over_q(*coefficients), [p], 7)
        assert (r.good, r.alpha) == (False, alpha)
        assert (r.torus_series_signed is r.torus_series) == (r.torus_series_signed == r.torus_series) == (alpha != -1)
        assert r.torus_series_signed == torus_local_zeta(p, 7, good=False, alpha=alpha, mode="signed")
        assert r.torus_series == torus_local_zeta(p, 7, good=False, alpha=alpha)

    def test_exploration_mode_reaches_negative_signed_orders(self):
        # tr(A^p) of the [1] incidence matrix is the Lucas number L_p, past the
        # Hasse bound, so det(I - L^n) changes sign with n
        (r,) = lemma1_check(E_MINUS_X, [5], 4, period=[1], mode="signed")
        assert r.torus_series == torus_local_zeta(5, 4, good=True, trace_ap=11, mode="signed")
        assert r.torus_series.coefficients[1] == 1 - 11 + 5

    def test_invalid_mode_raises_at_a_good_prime(self):
        with pytest.raises(ValueError, match="unknown mode 'weird'"):
            lemma1_check(E_MINUS_X, [2, 5], 3, mode="weird")

    def test_invalid_mode_raises_at_bad_primes_only(self):
        # 2 is bad for y^2 = x^3 - x: the mode is checked before any prime
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            lemma1_check(E_MINUS_X, [2], mode="bogus")

    def test_lp_chain_tests_no_prime_again(self, monkeypatch):
        # the levels take the PrimeField that local_data built, which has tested p
        import nclocal.ck_k0 as ck_k0

        def refuse(n):
            raise AssertionError(f"is_prime({n}) on the L_p chain")

        monkeypatch.setattr(ck_k0, "is_prime", refuse)
        lemma1_check(E_MINUS_X, [3, 5, 7], 4)
        lemma1_check(E_MINUS_X, [3, 5, 7], 4, period=[2, 1], mode="signed")
        localize(E_MINUS_X, 5, 3)
        dirichlet_coefficients(E_MINUS_X, 30)
        epsilons(PrimeField(5), 3, trace_ap=1)
        # a composite p is refused where its field is built
        with pytest.raises(ValueError, match="6 is not prime"):
            PrimeField(6)


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

    def test_torus_check_raises(self, monkeypatch):
        import nclocal.zeta as zeta_mod

        monkeypatch.setattr(zeta_mod, "k0_order", lambda eps: 0)
        with pytest.raises(RuntimeError, match="^curve and torus local coefficients differ at p=3$"):
            dirichlet_coefficients(E_MINUS_X, 20)


class TestLocalData:
    def test_good_prime(self):
        from nclocal.elliptic import trace_of_frobenius
        local = local_data(E_MINUS_X, 5)
        assert local.p == 5 and local.reduction.is_good
        assert local.a_p == trace_of_frobenius(local.reduced) == -2
        assert local.point_counts(3) == [8, 32, 104]

    def test_bad_prime(self):
        local = local_data(WeierstrassModel.over_q(0, 2, 0, 0, 0), 5)  # non-split node
        assert local.a_p is None and local.reduction.alpha == -1
        assert local.point_counts(3) == [5 + 1, 25 - 1, 125 + 1]
        assert local.point_counts(1) == [count_nonsingular(local.reduced)]

    def test_rational_form_check_raises(self, monkeypatch):
        import nclocal.zeta as zeta_mod

        monkeypatch.setattr(zeta_mod, "euler_factor_polynomial", lambda ap, p: [1, -ap + 1, p])
        with pytest.raises(RuntimeError, match="exp-sum and rational form disagree at p=5"):
            lemma1_check(E_MINUS_X, [5], 3)

    def test_wrong_a_p_raises_at_every_order(self):
        # the counts stay those of the curve while a_p is off by delta
        for e, primes in GOOD_PRIMES_50.items():
            for p in primes[:6]:
                for delta in (-2, -1, 1, 2):
                    local = local_data(e, p)
                    wrong, counts = LocalData(local.reduced, local.reduction, local.a_p + delta), local.point_counts(12)
                    for order in range(1, 13):
                        with pytest.raises(RuntimeError, match=f"disagree at p={p}, a_p={wrong.a_p}$"):
                            _curve_series(wrong, counts[:order], order)

    def test_wrong_a_p_check_survives_optimize_flag(self):
        code = (
            "from nclocal.elliptic import LocalData, WeierstrassModel, local_data\n"
            "from nclocal.zeta import _curve_series\n"
            "local = local_data(WeierstrassModel.over_q(0, 0, 0, -1, 0), 5)\n"
            "counts = local.point_counts(6)\n"
            "_curve_series(LocalData(local.reduced, local.reduction, local.a_p + 1), counts, 6)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "RuntimeError: exp-sum and rational form disagree at p=5, a_p=-1" in proc.stderr
