"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from nclocal._factor import is_prime
from nclocal.ck_k0 import epsilon, k0_group, k0_order
from nclocal.elliptic import (
    AdmissibleTransform,
    ReductionKind,
    WeierstrassModel,
    classify_reduction,
    count_nonsingular,
    count_points,
    invariants,
    point_counts_via_recurrence,
    reduce_mod_p,
    trace_of_frobenius,
    transform,
)
from nclocal.ffield import FieldElement, PrimeField, is_square
from nclocal.functor import theorem1_check
from nclocal.intmat import IntMatrix, invariant_factors, mat_pow
from nclocal.quadratic_cf import QuadraticIrrational, cf_expand, incidence_matrix, is_reduced
from nclocal.zeta import TruncatedSeries, lemma1_check

from cf_oracle import compare_to, convergents, value_pair
from conjugacy_oracle import brute_force_conjugator, conjugacy_test
from field_oracle import at_level
from intmat_oracle import determinantal_divisors
from zeta_oracle import curve_local_zeta, series, torus_local_zeta

E_MINUS_X = WeierstrassModel.over_q(0, 0, 0, -1, 0)
E_PLUS_1 = WeierstrassModel.over_q(0, 0, 0, 0, 1)
CATALOG_CURVES = {"y^2=x^3-x": E_MINUS_X, "y^2=x^3+1": E_PLUS_1}

PRIMES_50 = [p for p in range(2, 51) if is_prime(p)]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {description}")


def good_primes(e, primes):
    out = []
    for p in primes:
        red = reduce_mod_p(e, p)
        if classify_reduction(red).is_good:
            out.append((p, red))
    return out


def test_criterion_1_lemma1_desk_form():
    with criterion(1, "|det(I - L_p^n)| = #E(F_{p^n}) for p <= 50, n <= 6, brute-verified"):
        start = time.monotonic()
        identities = brute_checked = 0
        for e in CATALOG_CURVES.values():
            for p, red in good_primes(e, PRIMES_50):
                ap = trace_of_frobenius(red)
                counts = point_counts_via_recurrence(ap, p, 6)
                for n in range(1, 7):
                    assert k0_order(epsilon(red.field, n, trace_ap=ap)) == counts[n - 1], (p, n)
                    identities += 1
                    if p**n <= 10**5:
                        assert count_points(at_level(red, n)) == counts[n - 1], (p, n)
                        brute_checked += 1
        elapsed = time.monotonic() - start
        assert identities == 162 and brute_checked >= 90
        assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_2_zeta_series_equality():
    with criterion(2, "curve and torus zeta series agree to order 6 at every good p <= 50"):
        for e in CATALOG_CURVES.values():
            goods = good_primes(e, PRIMES_50)
            reports = lemma1_check(e, [p for p, _ in goods], 6)
            for (p, red), report in zip(goods, reports):
                ap = trace_of_frobenius(red)
                curve_series = curve_local_zeta(e, p, 6)
                torus_series = torus_local_zeta(p, 6, good=True, trace_ap=ap)
                assert curve_series == torus_series, f"mismatch at p={p}"
                assert curve_series.coefficients[0] == 1
                assert report.curve_series == curve_series and report.torus_series == torus_series
                assert report.verdict == "match" and report.first_mismatch is None


def test_criterion_3_theorem1_desk_form():
    with criterion(3, "20 seeded transforms per (curve, p in {5,7,11,13}): identical L_p; additive p=3: alpha=0"):
        start = time.monotonic()
        for name, e in CATALOG_CURVES.items():
            for p in (5, 7, 11, 13):
                report = theorem1_check(e, p, trials=20, seed=20_240_601 + p)
                assert report.good and report.all_passed, (name, p)
                assert all(t.closure_isomorphic for t in report.trials)
        additive = theorem1_check(E_PLUS_1, 3, trials=10, seed=99)
        assert not additive.good and additive.baseline == "alpha=0"
        assert additive.all_passed
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"


def _shift_pairs(max_entry=3, max_len=4):
    for length in range(1, max_len + 1):
        for word in product(range(1, max_entry + 1), repeat=length):
            for k in range(length):
                yield word, word[k:] + word[:k]


def test_criterion_4_lemma3_chain():
    with criterion(4, "cyclic shifts conjugate with verified witness; trace powers match; oracle agrees"):
        for word, shifted in _shift_pairs():
            a = incidence_matrix(word)
            b = incidence_matrix(shifted)
            verdict = conjugacy_test(a, b, 5)
            assert verdict.is_conjugate, (word, shifted)
            w = verdict.witness
            assert w.det() in (1, -1) and w * a == b * w
            for p in (2, 3, 5, 7):
                assert mat_pow(a, p).trace() == mat_pow(b, p).trace()
            oracle = brute_force_conjugator(a, b, 5)
            if oracle is not None:
                assert oracle * a == b * oracle
        rng = random.Random(41)
        rejected = 0
        while rejected < 100:
            w1 = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            w2 = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            a, b = incidence_matrix(w1), incidence_matrix(w2)
            if a.trace() == b.trace():
                continue
            verdict = conjugacy_test(a, b, 5)
            assert verdict.status == "not_conjugate"
            assert brute_force_conjugator(a, b, 5) is None
            rejected += 1


def test_criterion_5_snf_and_k0():
    with criterion(5, "10^4 random invariant-factor lists: determinantal divisors, chain, prod = |det|; K0(L_3) = Z/4"):
        rng = random.Random(314159)
        for i in range(10**4):
            size = 2 if i % 2 == 0 else 3
            m = IntMatrix(size, size, tuple(rng.randint(-50, 50) for _ in range(size * size)))
            diag = list(invariant_factors(m))
            assert diag == determinantal_divisors(m)
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and b >= 0
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
            det = m.det()
            if det != 0:
                prod = 1
                for d in diag:
                    prod *= d
                assert prod == abs(det)
        worked = k0_group(IntMatrix(2, 2, (0, 3, -1, 0)))
        assert worked.invariant_factors == (1, 4) and str(worked) == "Z/4"


def _tangent_discriminant(e):
    # translate the unique singular point to the origin; b2 there is the
    # tangent-cone discriminant
    field = e.field
    p = field.p
    singular = []
    for xv in range(p):
        for yv in range(p):
            x, y = FieldElement.of(field, xv), FieldElement.of(field, yv)
            f = y * y + e.a1 * x * y + e.a3 * y - (x * x * x + e.a2 * x * x + e.a4 * x + e.a6)
            fx = e.a1 * y - (3 * x * x + 2 * e.a2 * x + e.a4)
            fy = 2 * y + e.a1 * x + e.a3
            if f == 0 and fx == 0 and fy == 0:
                singular.append((x, y))
    assert len(singular) == 1
    x0, y0 = singular[0]
    one, zero = FieldElement.of(field, 1), FieldElement.of(field, 0)
    shifted = transform(e, AdmissibleTransform(one, x0, zero, y0))
    return invariants(shifted).b2


def test_criterion_6_classifier_cross_check():
    with criterion(6, "slope and counting classifications agree; split <=> square tangent discriminant"):
        models = []
        for p in (5, 7, 11, 13):
            field = PrimeField(p)
            for entry_model in CATALOG_CURVES.values():
                red = reduce_mod_p(entry_model, p)
                if invariants(red).disc == 0:
                    models.append((p, red))
            from nclocal.catalog import load_catalog

            for entry in load_catalog():
                red = reduce_mod_p(entry.model, p)
                if invariants(red).disc == 0:
                    models.append((p, red))
            for c in range(1, p):
                models.append((p, WeierstrassModel.over_field(field, 0, c, 0, 0, 0)))
        assert models, "no singular models generated"
        multiplicative_seen = {1: 0, -1: 0}
        for p, model in models:
            rt = classify_reduction(model)  # from c4 and -c6, no point scan
            alpha_count = p - count_nonsingular(model)
            assert rt.alpha == alpha_count, (p, rt)
            disc = _tangent_discriminant(model)
            if rt.kind is ReductionKind.ADDITIVE:
                assert disc == 0
            else:
                multiplicative_seen[rt.alpha] += 1
                assert is_square(model.field, disc.val) == (rt.alpha == 1)
        assert multiplicative_seen[1] > 0 and multiplicative_seen[-1] > 0


def test_criterion_7_continued_fractions():
    with criterion(7, "CF family |P|<=10, Q<=10, D<=200: periodicity, Galois, alternation, fixed vector"):
        from nclocal._factor import squarefree_split

        seen_periods = set()
        checked = 0
        for d in range(2, 201):
            if squarefree_split(d)[1] == 1:
                continue
            for p in range(-10, 11):
                for q in range(1, 11):
                    x = QuadraticIrrational(p, d, q)
                    exp = cf_expand(x)  # terminating is the periodicity claim
                    assert exp.is_purely_periodic == is_reduced(x)
                    cs = convergents(exp, 6)
                    signs = [compare_to(x, c) for c in cs]
                    assert signs == [1 if i % 2 == 0 else -1 for i in range(len(cs))]
                    seen_periods.add(exp.period)
                    checked += 1
        assert checked > 30000
        for word in seen_periods:
            m = incidence_matrix(word)
            pp, qq, rr, ss = m.entries
            theta = QuadraticIrrational(pp - ss, (pp - ss) ** 2 + 4 * rr * qq, 2 * rr)
            a, b, d = value_pair(theta)
            lam = (rr * a + ss, rr * b)
            assert (pp * a + qq, pp * b) == (lam[0] * a + lam[1] * b * d, lam[0] * b + lam[1] * a)
            assert (rr * a + ss, rr * b) == lam


def test_criterion_8_bad_prime_zeta_conventions():
    with criterion(8, "alpha=0 -> 1; alpha=1 -> 1/(1-z); alpha=-1 -> abs/signed mismatch at z^1"):
        order = 6
        assert torus_local_zeta(11, order, good=False, alpha=0) == series([1], order)
        geometric = TruncatedSeries(tuple(1 for _ in range(order + 1)))
        assert torus_local_zeta(11, order, good=False, alpha=1) == geometric
        absolute = torus_local_zeta(11, order, good=False, alpha=-1)
        signed = torus_local_zeta(11, order, good=False, alpha=-1, mode="signed")
        assert absolute.first_mismatch(signed) == 1
        assert absolute.coefficients[1] == 1 and signed.coefficients[1] == -1
        # end to end through real reductions: split (alpha=1) and non-split
        # (alpha=-1) multiplicative models at p=5, additive at p=3
        split_model = WeierstrassModel.over_q(0, 1, 0, 5, 5)  # reduces to y^2=x^3+x^2 mod 5
        nonsplit_model = WeierstrassModel.over_q(0, 2, 0, 5, 5)  # y^2=x^3+2x^2 mod 5
        (rep_split,) = lemma1_check(split_model, [5], order)
        assert rep_split.alpha == 1 and rep_split.torus_series == geometric
        (rep_nonsplit,) = lemma1_check(nonsplit_model, [5], order)
        assert rep_nonsplit.alpha == -1
        assert rep_nonsplit.torus_series.first_mismatch(rep_nonsplit.torus_series_signed) == 1
        for rep in (rep_split, rep_nonsplit):
            assert rep.torus_series == torus_local_zeta(5, order, good=False, alpha=rep.alpha)
            assert rep.torus_series_signed == torus_local_zeta(5, order, good=False, alpha=rep.alpha, mode="signed")
        (rep_additive,) = lemma1_check(E_PLUS_1, [3], order)
        assert rep_additive.alpha == 0
        assert rep_additive.torus_series == series([1], order)
