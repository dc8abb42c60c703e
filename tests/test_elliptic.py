import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nclocal._factor import factorize, is_prime
from nclocal.catalog import CM_J_INVARIANTS, load_catalog
from nclocal.elliptic import (
    AP_GUARD,
    CM_MODELS,
    MESTRE_BOUND,
    AdmissibleTransform,
    ReductionError,
    ReductionKind,
    WeierstrassModel,
    classify_reduction,
    count_nonsingular,
    count_points,
    group_structure,
    invariants,
    isomorphic_over_closure,
    j_invariant,
    point_counts_via_recurrence,
    reduce_mod_p,
    trace_of_frobenius,
    transform,
)
from nclocal.elliptic import (
    _CM_ORDERS,
    _CM_REFERENCE,
    _absolute_trace,
    _affine_count,
    _bsgs,
    _cm_trace,
    _cornacchia,
    _invariants_mod_p,
    _order_by_bsgs,
    _raw_consts,
    _raw_mul,
)
from nclocal.ffield import FieldElement, PrimeField, finite_field

from field_oracle import at_level, model_over_ext, table_field
from group_oracle import affine_points
from cm_oracle import cm_trace_by_points
from iso_oracle import inverse, isomorphism_witness, then

E_MINUS_X = WeierstrassModel.over_q(0, 0, 0, -1, 0)  # y^2 = x^3 - x
E_PLUS_1 = WeierstrassModel.over_q(0, 0, 0, 0, 1)  # y^2 = x^3 + 1


def rand_model(rng, span=8):
    while True:
        e = WeierstrassModel.over_q(*(rng.randint(-span, span) for _ in range(5)))
        if invariants(e).disc != 0:
            return e


class TestInvariants:
    def test_minus_x(self):
        inv = invariants(E_MINUS_X)
        assert (inv.b2, inv.b4, inv.b6) == (0, -2, 0)
        assert inv.disc == 64 and inv.c4 == 48
        assert j_invariant(E_MINUS_X) == 1728

    def test_plus_1(self):
        inv = invariants(E_PLUS_1)
        assert inv.disc == -432 and inv.c4 == 0
        assert j_invariant(E_PLUS_1) == 0

    def test_c4_closed_form(self):
        # (a1^2+4a2)^2 - 24(a1a3+2a4) == b2^2 - 24 b4
        rng = random.Random(5)
        for _ in range(1000):
            a1, a2, a3, a4 = (Fraction(rng.randint(-9, 9)) for _ in range(4))
            e = WeierstrassModel.over_q(a1, a2, a3, a4, rng.randint(-9, 9))
            inv = invariants(e)
            assert inv.c4 == (a1 * a1 + 4 * a2) ** 2 - 24 * (a1 * a3 + 2 * a4)

    def test_invariants_mod_p_match_the_field_elements(self):
        rng = random.Random(11)
        for _ in range(400):
            e = WeierstrassModel.over_q(*(Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 8))) for _ in range(5)))
            p = rng.choice((2, 3, 5, 7, 11, 101, 10**9 + 7, 999999999989))
            try:
                red = reduce_mod_p(e, p)
            except ReductionError:
                continue
            inv = invariants(red)
            assert _invariants_mod_p(red) == (inv.c4.val, inv.c6.val, inv.disc.val)

    def test_b8_identity_check_survives_optimize_flag(self):
        # float coefficients round, so the polynomial identity of b8 breaks
        code = (
            "from nclocal.elliptic import WeierstrassModel, invariants\n"
            "invariants(WeierstrassModel(0.1, 0.2, 0.3, 0.7, 1.1))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "RuntimeError: b8 consistency identity" in proc.stderr and "[0.1,0.2,0.3,0.7,1.1]" in proc.stderr

    def test_short_form_check_survives_optimize_flag(self):
        # float coefficients round, so completing the square and the cube
        # leaves an a2 of about 1e-17
        code = (
            "from nclocal.elliptic import WeierstrassModel\n"
            "from iso_oracle import _short_form\n"
            "_short_form(WeierstrassModel(0.7, 0, 2, 0, 0.7))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "RuntimeError: the short form" in proc.stderr and "of [0.7,0,2,0,0.7]" in proc.stderr

    def test_j_requires_nonsingular(self):
        with pytest.raises(ValueError, match="singular model"):
            j_invariant(WeierstrassModel.over_q(0, 0, 0, 0, 0))

    def test_parse(self):
        e = WeierstrassModel.parse("[0,0,0,-1,0]")
        assert e == E_MINUS_X
        e2 = WeierstrassModel.parse('["1/2",0,0,"-3/4",1]')
        assert e2.a1 == Fraction(1, 2) and e2.a4 == Fraction(-3, 4)
        e3 = WeierstrassModel.parse("[1/2, 0, 0, -3/4, 1]")
        assert e3 == e2
        with pytest.raises(ValueError):
            WeierstrassModel.parse("[1,2,3]")


class TestTransform:
    def test_identity(self):
        t = AdmissibleTransform.over_q(1)
        assert transform(E_MINUS_X, t) == E_MINUS_X

    def test_disc_scaling(self):
        t = AdmissibleTransform.over_q(2)
        assert invariants(transform(E_MINUS_X, t)).disc == Fraction(1, 64)

    def test_scaling_laws_random(self):
        rng = random.Random(11)
        for _ in range(200):
            e = rand_model(rng)
            t = AdmissibleTransform.over_q(
                Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                rng.randint(-4, 4),
                rng.randint(-4, 4),
                rng.randint(-4, 4),
            )
            inv, inv2 = invariants(e), invariants(transform(e, t))
            u = t.u
            assert inv2.disc == inv.disc / u**12
            assert inv2.c4 == inv.c4 / u**4
            assert j_invariant(transform(e, t)) == j_invariant(e)

    def test_composition_law(self):
        rng = random.Random(13)
        for _ in range(100):
            e = rand_model(rng)
            t1 = AdmissibleTransform.over_q(rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            t2 = AdmissibleTransform.over_q(rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            assert transform(transform(e, t1), t2) == transform(e, then(t1, t2))

    def test_inverse(self):
        t = AdmissibleTransform.over_q(Fraction(2, 3), 1, -2, 5)
        e = E_PLUS_1
        assert transform(transform(e, t), inverse(t)) == e

    def test_u_zero_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleTransform.over_q(0)


class TestReduce:
    def test_good_reduction_mod_5(self):
        r = reduce_mod_p(E_MINUS_X, 5)
        assert invariants(r).disc == 4  # 64 mod 5
        assert classify_reduction(r).is_good

    def test_bad_at_2(self):
        r = reduce_mod_p(E_MINUS_X, 2)
        assert invariants(r).disc == 0

    def test_bad_at_3_plus1(self):
        r = reduce_mod_p(E_PLUS_1, 3)
        assert invariants(r).disc == 0

    def test_disc_commutes_with_reduction(self):
        rng = random.Random(3)
        for _ in range(50):
            e = rand_model(rng)
            for p in (5, 7, 11):
                r = reduce_mod_p(e, p)
                d = invariants(e).disc
                red_disc = invariants(r).disc
                expect = FieldElement.of(PrimeField(p), d.numerator) / d.denominator
                assert red_disc == expect

    def test_non_p_integral_rejected(self):
        e = WeierstrassModel.over_q(Fraction(1, 5), 0, 0, 1, 1)
        with pytest.raises(ValueError, match="not p-integral"):
            reduce_mod_p(e, 5)
        reduce_mod_p(e, 7)  # fine away from 5


class TestClassify:
    def test_good(self):
        assert classify_reduction(reduce_mod_p(E_MINUS_X, 5)).kind is ReductionKind.GOOD

    def test_split_node(self):
        f5 = PrimeField(5)
        e = WeierstrassModel.over_field(f5, 0, 1, 0, 0, 0)  # y^2 = x^3 + x^2
        rt = classify_reduction(e)
        assert rt.kind is ReductionKind.SPLIT_MULTIPLICATIVE and rt.alpha == 1
        assert count_nonsingular(e) == 4

    def test_nonsplit_node(self):
        f5 = PrimeField(5)
        e = WeierstrassModel.over_field(f5, 0, 2, 0, 0, 0)  # y^2 = x^3 + 2x^2
        rt = classify_reduction(e)
        assert rt.kind is ReductionKind.NONSPLIT_MULTIPLICATIVE and rt.alpha == -1
        assert count_nonsingular(e) == 6

    def test_cusp(self):
        rt = classify_reduction(reduce_mod_p(E_PLUS_1, 3))
        assert rt.kind is ReductionKind.ADDITIVE and rt.alpha == 0

    def test_family_split_iff_c_square(self):
        from nclocal.ffield import is_square

        for p in (5, 7, 11, 13):
            fp = PrimeField(p)
            for c in range(1, p):
                e = WeierstrassModel.over_field(fp, 0, c, 0, 0, 0)
                rt = classify_reduction(e)
                if is_square(fp, 4 * c % p):
                    assert rt.kind is ReductionKind.SPLIT_MULTIPLICATIVE
                else:
                    assert rt.kind is ReductionKind.NONSPLIT_MULTIPLICATIVE
                assert count_nonsingular(e) == p - rt.alpha

    def test_type_invariant_under_field_transforms(self):
        # reduction kind & alpha survive admissible transforms over F_p
        rng = random.Random(77)
        for p in (5, 7, 11):
            fp = PrimeField(p)
            for c in (1, 2, 3):
                e = WeierstrassModel.over_field(fp, 0, c, 0, 0, 0)
                base = classify_reduction(e)
                for _ in range(34):
                    vals = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(3)]
                    t = AdmissibleTransform(*(FieldElement.of(fp, v) for v in vals))
                    rt = classify_reduction(transform(e, t))
                    assert rt.kind is base.kind and rt.alpha == base.alpha


class TestCounting:
    def test_spec_counts(self):
        assert count_points(reduce_mod_p(E_MINUS_X, 3)) == 4
        assert count_points(reduce_mod_p(E_MINUS_X, 5)) == 8
        assert count_points(at_level(reduce_mod_p(E_MINUS_X, 5), 2)) == 32

    def test_trace_examples(self):
        assert trace_of_frobenius(reduce_mod_p(E_MINUS_X, 3)) == 0
        assert trace_of_frobenius(reduce_mod_p(E_MINUS_X, 5)) == -2
        assert trace_of_frobenius(reduce_mod_p(E_PLUS_1, 5)) == 0  # supersingular
        assert trace_of_frobenius(reduce_mod_p(E_PLUS_1, 7)) == -4

    def test_recurrence_examples(self):
        assert point_counts_via_recurrence(0, 3, 2) == [4, 16]
        assert point_counts_via_recurrence(-2, 5, 2) == [8, 32]
        for ap, p in [(-2, 5), (0, 3), (4, 7)]:
            assert point_counts_via_recurrence(ap, p, 1) == [p + 1 - ap]

    def test_recurrence_matches_brute_force(self):
        for e in (E_MINUS_X, E_PLUS_1):
            for p in (3, 5, 7, 11):
                red = reduce_mod_p(e, p)
                if not classify_reduction(red).is_good:
                    continue
                ap = trace_of_frobenius(red)
                ns = point_counts_via_recurrence(ap, p, 4)
                for n in range(1, 5):
                    if p**n <= 10**4:
                        assert count_points(at_level(red, n)) == ns[n - 1], (p, n)

    def test_char2_counting(self):
        # y^2 + y = x^3 over F_2: infinity, (0,0), (0,1); supersingular a_2 = 0
        f2 = PrimeField(2)
        e = WeierstrassModel.over_field(f2, 0, 0, 1, 0, 0)
        direct = 1 + sum(
            1
            for x in range(2)
            for y in range(2)
            if (y * y + y) % 2 == (x**3) % 2
        )
        assert count_points(e) == direct == 3
        # and over F_4 and F_8, against the trace recurrence
        ap = 2 + 1 - 3
        counts = point_counts_via_recurrence(ap, 2, 3)
        assert count_points(at_level(e, 2)) == counts[1] == 9
        assert count_points(at_level(e, 3)) == counts[2]
        # over the polynomial F_8, with the trace by squarings against the
        # table field's sum of Frobenius powers
        ext, table = finite_field(2, 3), table_field(2, 3)
        assert count_points(model_over_ext(e, ext)) == counts[2]
        assert [_absolute_trace(ext, a) for a in range(8)] == [table.absolute_trace(a) for a in range(8)]

    def test_singular_rejected(self):
        f5 = PrimeField(5)
        e = WeierstrassModel.over_field(f5, 0, 1, 0, 0, 0)
        with pytest.raises(ValueError, match="singular"):
            count_points(e)

    def test_guard(self, monkeypatch):
        # the guard reads the order of the model's own field
        import nclocal.elliptic as elliptic_mod

        curve = at_level(reduce_mod_p(E_MINUS_X, 5), 2)
        monkeypatch.setattr(elliptic_mod, "COUNT_GUARD", 24)
        with pytest.raises(ValueError, match="guard"):
            count_points(curve)
        monkeypatch.setattr(elliptic_mod, "COUNT_GUARD", 25)
        assert count_points(curve) == 32

    def test_extension_guard(self):
        # no model over an extension past 10^6 elements can be built to count on
        with pytest.raises(ValueError, match="field too large"):
            model_over_ext(reduce_mod_p(E_MINUS_X, 1009), finite_field(1009, 2))

    def test_prime_field_guard(self):
        p = primes_from(10**6, 1, 2, 1)[0]
        for count in (count_points, count_nonsingular):
            with pytest.raises(ValueError, match="guard exceeded: p\\^n > 10\\^6"):
                count(reduce_mod_p(E_MINUS_X, p))

    def test_counts_independent_of_modulus(self):
        # the F_49 point count does not depend on which irreducible modulus
        # presents the field
        for e in (E_MINUS_X, E_PLUS_1):
            red = reduce_mod_p(e, 7)
            counts = []
            for modulus in [(1, 0, 1), (3, 1, 1), (4, 0, 1)]:  # irreducible over F_7
                ext = table_field(7, 2, modulus)
                counts.append(len(list(affine_points(model_over_ext(red, ext)))) + 1)
            assert len(set(counts)) == 1
            assert counts[0] == count_points(at_level(red, 2))
            # and over the polynomial F_49 itself
            for count in (count_points, count_nonsingular):
                assert count(model_over_ext(red, finite_field(7, 2))) == counts[0]

    def test_hasse_bound_catalog(self):
        primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
        for entry in load_catalog():
            for p in primes:
                red = reduce_mod_p(entry.model, p)
                if invariants(red).disc == 0:
                    continue
                ap = trace_of_frobenius(red)  # raises internally if bound broken
                assert ap * ap <= 4 * p


def primes_between(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def primes_from(start, residue, modulus, count):
    out = []
    p = start
    while len(out) < count:
        if p % modulus == residue and is_prime(p):
            out.append(p)
        p += 1
    return out


def is_perfect_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


CATALOG = {entry.label: entry.model for entry in load_catalog()}
FAST_PRIMES = primes_between(MESTRE_BOUND + 1, 10**5)


def short_twist(e, d):
    """The quadratic twist by d of the short model y^2 = x^3 - 27 c4 x - 54 c6 of e."""
    inv = invariants(e)
    return WeierstrassModel.over_q(0, 0, 0, -27 * inv.c4 * d * d, -54 * inv.c6 * d**3)


def cm_models(label):
    """A catalog curve, two isomorphic models with |u| > 1 and its twists by -1, 5 and -11."""
    e = CATALOG[label]
    return [
        e,
        transform(e, AdmissibleTransform.over_q(2, 1, -1, 3)),
        transform(e, AdmissibleTransform.over_q(-3, 2, 0, -1)),
    ] + [short_twist(e, d) for d in (-1, 5, -11)]


# curves over Q without CM: 37a1, y^2 = x^3 + x + 1, 11a1 and 11a3
NON_CM = [WeierstrassModel.over_q(*c) for c in ((0, 0, 1, -1, 0), (0, 0, 0, 1, 1), (0, -1, 1, -10, -20), (0, -1, 1, 0, 0))]


def reduces_to_cm_j(red):
    c4, _, disc = _invariants_mod_p(red)
    j = c4**3 * pow(disc, -1, red.field.p) % red.field.p
    return any(j0 % red.field.p == j for j0 in CM_J_INVARIANTS.values())


class TestFastTrace:
    """a_p from the norm equation for a CM j mod p and by baby-step
    giant-step for any other j above MESTRE_BOUND: each against the
    brute-force oracle count_points, the CM path against baby-step
    giant-step, and Cornacchia's solutions of the norm equation."""

    def test_matches_count_on_catalog(self):
        for label, model in CATALOG.items():
            for p in primes_between(MESTRE_BOUND + 1, 3000):
                red = reduce_mod_p(model, p)
                if invariants(red).disc == 0:
                    continue
                assert trace_of_frobenius(red) == p + 1 - count_points(red), (label, p)

    @settings(max_examples=25)
    @given(
        st.sampled_from(sorted(CATALOG)),
        st.sampled_from((1, -1)),
        st.tuples(*(st.integers(-50, 50) for _ in range(3))),
        st.sampled_from(FAST_PRIMES),
    )
    @example("cm-163", -1, (7, -3, 5), FAST_PRIMES[-1])
    @example("cm-8", 1, (-2, 9, 1), FAST_PRIMES[-2])
    def test_matches_count_on_isomorphic_models(self, label, u, rst, p):
        e = transform(CATALOG[label], AdmissibleTransform.over_q(u, *rst))
        red = reduce_mod_p(e, p)
        assume(invariants(red).disc != 0)
        assert trace_of_frobenius(red) == p + 1 - count_points(red)

    @pytest.mark.parametrize("start", [10**9, 10**12 - 10**4])
    def test_closed_forms_at_large_p(self, start):
        # supersingular: y^2 = x^3 - x at p = 3 mod 4, y^2 = x^3 + 1 at p = 2 mod 3
        for p in primes_from(start, 3, 4, 3):
            assert trace_of_frobenius(reduce_mod_p(E_MINUS_X, p)) == 0
        for p in primes_from(start, 2, 3, 3):
            assert trace_of_frobenius(reduce_mod_p(E_PLUS_1, p)) == 0
        # ordinary: p = (a_p/2)^2 + b^2 over Z[i], 4p = a_p^2 + 3c^2 over Z[omega]
        for p in primes_from(start, 1, 4, 3):
            ap = trace_of_frobenius(reduce_mod_p(E_MINUS_X, p))
            assert ap % 2 == 0 and is_perfect_square(p - (ap // 2) ** 2)
        for p in primes_from(start, 1, 3, 3):
            ap = trace_of_frobenius(reduce_mod_p(E_PLUS_1, p))
            rest = 4 * p - ap * ap
            assert rest % 3 == 0 and is_perfect_square(rest // 3)

    def test_deterministic(self):
        # equal inputs, fresh objects: the point scan has no randomness
        p = primes_from(10**9, 1, 4, 1)[0]
        runs = {trace_of_frobenius(reduce_mod_p(WeierstrassModel.over_q(0, 0, 0, -1, 0), p)) for _ in range(3)}
        assert len(runs) == 1

    def test_singular_rejected(self):
        fp = PrimeField(1009)
        node = WeierstrassModel.over_field(fp, 0, 1, 0, 0, 0)  # y^2 = x^3 + x^2
        with pytest.raises(ValueError, match="singular"):
            trace_of_frobenius(node)

    def test_guard(self):
        p = primes_from(AP_GUARD, 1, 2, 1)[0]
        with pytest.raises(ValueError, match="guard"):
            trace_of_frobenius(reduce_mod_p(E_MINUS_X, p))

    @pytest.mark.parametrize("label", sorted(CATALOG))
    def test_cm_path_matches_bsgs(self, label):
        rng = random.Random(label)
        primes = sorted(rng.sample(FAST_PRIMES, 8)) + primes_between(AP_GUARD - 10**4, AP_GUARD - 10**4 + 60)[:2]
        for e in cm_models(label):
            for p in primes:
                red = reduce_mod_p(e, p)
                ap = _cm_trace(red)
                assert ap is not None and ap == p + 1 - _order_by_bsgs(red), (label, e, p)
                assert trace_of_frobenius(red) == ap

    def test_bsgs_matches_count_on_non_cm_models(self):
        for e in NON_CM:
            assert j_invariant(e) not in CM_J_INVARIANTS.values()
            for p in primes_between(MESTRE_BOUND + 1, 1500):
                red = reduce_mod_p(e, p)
                if invariants(red).disc != 0:
                    assert _order_by_bsgs(red) == count_points(red), (e, p)

    def test_non_cm_curve_at_primes_with_a_cm_j(self):
        # Deuring: the reduction has its j's CM field, or is supersingular
        seen = 0
        rng = random.Random(3)
        models = NON_CM + [rand_model(rng) for _ in range(6)]
        for e in models:
            for p in primes_between(5, 20000):
                try:
                    red = reduce_mod_p(e, p)
                except ReductionError:
                    continue
                if invariants(red).disc == 0:
                    continue
                if not reduces_to_cm_j(red):
                    assert _cm_trace(red) is None
                    continue
                seen += 1
                assert trace_of_frobenius(red) == p + 1 - count_points(red), (e, p)
                assert _cm_trace(red) is not None
        assert seen >= 40

    @pytest.mark.parametrize("label, p", [("cm-4", 233), ("cm-11", 269)])
    def test_tied_candidates_fall_back(self, label, p):
        # the point step left two candidates alive here; the symbols do not
        red = reduce_mod_p(CATALOG[label], p)
        assert cm_trace_by_points(red) is None
        assert _cm_trace(red) == p + 1 - count_points(red) == p + 1 - _order_by_bsgs(red)

    def test_catalog_needs_no_bsgs_above_the_ties(self, monkeypatch):
        import nclocal.elliptic as elliptic_mod

        expected = {}
        for label, model in CATALOG.items():
            for p in primes_between(5, 3000):
                red = reduce_mod_p(model, p)
                if invariants(red).disc != 0:
                    expected[label, p] = (red, p + 1 - (count_points(red) if p <= MESTRE_BOUND else _order_by_bsgs(red)))

        def no_bsgs(e):
            raise AssertionError("trace_of_frobenius ran baby-step giant-step")

        def no_count(e):
            raise AssertionError("trace_of_frobenius counted points")

        monkeypatch.setattr(elliptic_mod, "_order_by_bsgs", no_bsgs)
        monkeypatch.setattr(elliptic_mod, "count_points", no_count)
        for key, (red, ap) in expected.items():
            assert trace_of_frobenius(red) == ap, key

    @pytest.mark.parametrize("d", sorted(_CM_ORDERS))
    def test_cornacchia_solves_the_norm_equation(self, d):
        split = [p for p in primes_between(5, 10**4) if pow(d, (p - 1) // 2, p) == 1]
        split += [p for p in primes_between(AP_GUARD - 10**4, AP_GUARD - 10**4 + 2000) if pow(d, (p - 1) // 2, p) == 1][:4]
        assert len(split) > 100
        for p in split:
            t, w = _cornacchia(PrimeField(p), d)
            assert t >= 0 and w >= 0 and t * t - d * w * w == 4 * p, (d, p)

    def test_cornacchia_rejects_a_non_residue(self):
        with pytest.raises(ValueError, match="not a square mod 7"):
            _cornacchia(PrimeField(7), -4)

    def test_inert_primes_give_zero(self):
        for entry in load_catalog():
            label, model, d_k = entry.label, entry.model, _CM_ORDERS[entry.cm_discriminant][1]
            for p in primes_between(5, 10**4):
                if pow(d_k, (p - 1) // 2, p) == 1:
                    continue
                red = reduce_mod_p(model, p)
                if invariants(red).disc == 0:
                    continue
                assert _cm_trace(red) == trace_of_frobenius(red) == 0, (label, p)
                if p < 500:
                    assert count_points(red) == p + 1

    def test_cm_table(self):
        import nclocal.catalog as catalog_mod
        import nclocal.elliptic as elliptic_mod

        assert catalog_mod.CM_J_INVARIANTS is elliptic_mod.CM_J_INVARIANTS
        for d, (j, d_k) in _CM_ORDERS.items():
            f = isqrt(d // d_k)
            assert CM_J_INVARIANTS[d] == j and f * f * d_k == d
            # d_K is fundamental: 1 mod 4 and squarefree, or 4m with m = 2, 3 mod 4
            core = d_k if d_k % 4 == 1 else d_k // 4
            assert (d_k % 4 == 1 or core % 4 in (2, 3)) and all(core % (q * q) for q in range(2, 14))



# y^2 = x^3 + Ax and y^2 = x^3 + B beside the catalog's A = -1 and B = 1:
# between them they meet every quartic and every sextic residue class
QUARTIC_MODELS = [WeierstrassModel.over_q(0, 0, 0, a, 0) for a in (2, 3)]
SEXTIC_MODELS = [WeierstrassModel.over_q(0, 0, 0, 0, b) for b in (2, 3)]


def symbol_models():
    """(model, the model the oracle runs on) pairs: each catalog curve, an
    isomorphic model with u = 2 (an isomorphism over Q keeps a_p, so the
    oracle runs on the catalog curve) and its twist by 5, then the quartic
    and sextic families."""
    out = []
    for e in CATALOG.values():
        twist = short_twist(e, 5)
        out += [(e, e), (transform(e, AdmissibleTransform.over_q(2, 1, -1, 3)), e), (twist, twist)]
    return out + [(e, e) for e in QUARTIC_MODELS + SEXTIC_MODELS]


def sign_classes(d, t, w):
    """The residues of t and w that _reference_sign reads for d, beyond
    the Legendre symbol that fixes the sign itself for odd d_K."""
    if d == -8:
        return (t // 2 % 8 in (1, 3), w % 4 == 0)
    if d == -16:
        return ((t // 2 - 1) // 2 % 2 == 1, w % 2 == 1)
    return ()


class TestResidueSymbols:
    """The unit of Frobenius from residue symbols (_cm_trace) against the
    point step that picked it before (tests/cm_oracle.py), at every good
    prime 5 <= p <= 10^4 and at the 337 primes just below AP_GUARD; every
    residue class the rules read is met."""

    def test_reference_models_are_good_away_from_6_d_k(self):
        # the sign rule reads c4 c6 of CM_MODELS[d] at split primes p >= 5
        for d, (c4, c6) in _CM_REFERENCE.items():
            e = WeierstrassModel.over_q(*CM_MODELS[d])
            assert j_invariant(e) == CM_J_INVARIANTS[d] and (c4, c6) == (invariants(e).c4, invariants(e).c6)
            assert set(factorize(abs(invariants(e).disc))) <= {2, 3} | set(factorize(-_CM_ORDERS[d][1])), d
        # the catalog serves the same models
        assert {entry.cm_discriminant: entry.model for entry in load_catalog()} == {
            d: WeierstrassModel.over_q(*m) for d, m in CM_MODELS.items()
        }

    def test_symbols_match_the_point_step(self, monkeypatch):
        import nclocal.elliptic as elliptic_mod

        unit_trace, reference_sign = elliptic_mod._unit_trace, elliptic_mod._reference_sign
        seen, signed_t = set(), []

        def record_unit(e, symbol, units, traces):
            p = e.field.p
            k = next(k for k, u in enumerate(units) if symbol in (u, p - u))
            seen.add(("unit", 2 * len(units), k, symbol == units[k]))
            return unit_trace(e, symbol, units, traces)

        def record_sign(d, t, w):
            sign = reference_sign(d, t, w)
            signed_t.append(sign * t)
            seen.add(("sign", d, sign, sign_classes(d, t, w)))
            return sign

        monkeypatch.setattr(elliptic_mod, "_unit_trace", record_unit)
        monkeypatch.setattr(elliptic_mod, "_reference_sign", record_sign)
        models = symbol_models()
        checked = 0
        for p in primes_between(5, 10**4):
            # one field per p, whose Tonelli-Shanks state every model shares
            fp, oracle = PrimeField(p), {}
            for e, base in models:
                red = WeierstrassModel.over_field(fp, *(a.numerator * pow(a.denominator, -1, p) % p for a in e.coefficients))
                c4, _, disc = _invariants_mod_p(red)
                if not disc:
                    continue
                j = c4**3 * pow(disc, -1, p) % p
                d = next(d for d, j0 in CM_J_INVARIANTS.items() if j0 % p == j)
                ap = _cm_trace(red)
                if id(base) not in oracle:
                    expected = cm_trace_by_points(red)
                    oracle[id(base)] = p + 1 - count_points(red) if expected is None else expected
                assert ap == oracle[id(base)], (e, p)
                checked += 1
                seen.add(("p", d, p % -d if d in (-3, -4) else None, ap == 0))
                if ap and d not in (-3, -4):
                    seen.add(("twist", d, ap == signed_t[-1]))
        large = primes_between(AP_GUARD - 10**4, AP_GUARD - 1)
        assert len(large) == 337
        for e in CATALOG.values():
            for p in large:
                red = reduce_mod_p(e, p)
                assert _cm_trace(red) == cm_trace_by_points(red), (e, p)
                checked += 1
        assert checked > 50000
        wanted = {("unit", 4, k, s) for k in range(2) for s in (True, False)}
        wanted |= {("unit", 6, k, s) for k in range(3) for s in (True, False)}
        wanted |= {("p", -4, 1, False), ("p", -4, 3, True), ("p", -3, 1, False), ("p", -3, 2, True)}
        for d in CM_J_INVARIANTS:
            if d in (-3, -4):
                continue
            wanted |= {("p", d, None, True), ("p", d, None, False), ("twist", d, True), ("twist", d, False)}
            met = {key[2:] for key in seen if key[:2] == ("sign", d)}
            if d in (-8, -16):
                assert {c for _, c in met} == {(x, y) for x in (True, False) for y in (True, False)}, d
            else:
                assert {s for s, _ in met} == {1, -1}, d
        assert wanted <= seen, sorted(wanted - seen, key=str)


class TestGroupStructure:
    def test_full_two_torsion(self):
        g = group_structure(reduce_mod_p(E_MINUS_X, 3))
        assert g.invariant_factors == (2, 2)

    def test_cyclic_six(self):
        g = group_structure(reduce_mod_p(E_PLUS_1, 5))
        assert g.invariant_factors == (1, 6)

    def test_order_matches_count(self):
        for e in (E_MINUS_X, E_PLUS_1):
            for p, n in [(5, 1), (7, 1), (11, 1), (5, 2), (3, 2)]:
                red = reduce_mod_p(e, p)
                if not classify_reduction(red).is_good:
                    continue
                g = group_structure(red, n)
                assert g.order == count_points(at_level(red, n))
                d1, d2 = g.invariant_factors
                assert (p**n - 1) % d1 == 0
                assert d1 * d2 == g.order and d2 % d1 == 0

    def test_d1_divides_gcd_d2_qm1(self):
        import math

        for p in (5, 13):
            red = reduce_mod_p(E_MINUS_X, p)
            d1, d2 = group_structure(red).invariant_factors
            assert math.gcd(d2, p - 1) % d1 == 0


class TestBabyStepGiantStep:
    """_bsgs against a scan of j * stride for every j in [0, span]."""

    CURVES = [
        (E_MINUS_X, 23, 1),
        (E_MINUS_X, 5, 2),
        (E_PLUS_1, 7, 2),
        (WeierstrassModel.over_q(1, 0, 0, 0, 1), 2, 3),  # y^2 + xy = x^3 + 1
    ]
    SPANS = (0, 1, 2, 5, 17, 40)

    @staticmethod
    def brute(f, consts, stride, target, span):
        return [j for j in range(span + 1) if _raw_mul(f, consts, stride, j) == target]

    @pytest.mark.parametrize("e, p, n", CURVES)
    def test_matches_scan_for_every_stride_and_target(self, e, p, n):
        red = reduce_mod_p(e, p)
        curve = at_level(red, n)
        f, consts = curve.field, _raw_consts(curve)
        points = [None] + list(affine_points(curve))
        for stride in points:
            for target in points:
                for span in self.SPANS:
                    got = list(_bsgs(f, consts, stride, target, span))
                    assert got == self.brute(f, consts, stride, target, span), (stride, target, span)

    @staticmethod
    def cyclic24():
        """y^2 = x^3 + 1 over F_23: a cyclic group of order 24, with
        (22, 0) of order 2 and a generator."""
        red = reduce_mod_p(E_PLUS_1, 23)
        f, consts = red.field, _raw_consts(red)
        gen = next(
            pt for pt in affine_points(red) if all(_raw_mul(f, consts, pt, 24 // ell) for ell in (2, 3))
        )
        return f, consts, (22, 0), gen

    def test_small_order_stride_is_periodic(self):
        f, consts, two, _ = self.cyclic24()
        # order 2 < w = isqrt(17) + 1 = 5: the solutions are 1 + 2k
        assert list(_bsgs(f, consts, two, two, 17)) == list(range(1, 18, 2))
        assert list(_bsgs(f, consts, None, None, 4)) == [0, 1, 2, 3, 4]

    def test_span_below_the_baby_step_count(self):
        f, consts, _, gen = self.cyclic24()
        # span 1 gives w = 2: one baby step past O and one giant step
        assert list(_bsgs(f, consts, gen, gen, 1)) == [1]
        assert list(_bsgs(f, consts, gen, gen, 0)) == []

    def test_target_at_infinity(self):
        f, consts, _, gen = self.cyclic24()
        assert list(_bsgs(f, consts, gen, None, 60)) == [0, 24, 48]

    def test_no_solution(self):
        f, consts, two, gen = self.cyclic24()
        assert list(_bsgs(f, consts, two, gen, 40)) == []
        assert list(_bsgs(f, consts, None, gen, 3)) == []


class TestClosureIsomorphism:
    def test_transform_pair(self):
        t = AdmissibleTransform.over_q(2, 1, -1, 3)
        e2 = transform(E_MINUS_X, t)
        for p in (5, 7, 11):
            assert isomorphic_over_closure(reduce_mod_p(E_MINUS_X, p), reduce_mod_p(e2, p))

    def test_quartic_twist(self):
        f5 = PrimeField(5)
        a = reduce_mod_p(E_MINUS_X, 5)
        b = WeierstrassModel.over_field(f5, 0, 0, 0, -4 % 5, 0)
        assert isomorphic_over_closure(a, b)

    def test_distinct_j(self):
        a = reduce_mod_p(E_MINUS_X, 7)
        b = reduce_mod_p(E_PLUS_1, 7)
        assert not isomorphic_over_closure(a, b)

    def test_witness_verified(self):
        f5 = PrimeField(5)
        a = reduce_mod_p(E_MINUS_X, 5)
        b = WeierstrassModel.over_field(f5, 0, 0, 0, -4 % 5, 0)
        found = isomorphism_witness(a, b)
        assert found is not None
        tr, field = found
        base = a if field.degree == 1 else model_over_ext(a, field)
        target = b if field.degree == 1 else model_over_ext(b, field)
        assert transform(base, tr) == target

    def test_witness_generic_j(self):
        e = WeierstrassModel.over_q(1, -1, 0, -2, -1)  # j = -3375
        t = AdmissibleTransform.over_q(3, 2, -1, 1)
        e2 = transform(e, t)
        for p in (5, 11):
            a, b = reduce_mod_p(e, p), reduce_mod_p(e2, p)
            found = isomorphism_witness(a, b)
            assert found is not None

    def test_none_when_j_differs(self):
        assert isomorphism_witness(reduce_mod_p(E_MINUS_X, 7), reduce_mod_p(E_PLUS_1, 7)) is None


class TestCatalog:
    def test_builtin_loads_and_verifies(self):
        entries = load_catalog()
        assert len(entries) == 13
        assert {e.cm_discriminant for e in entries} == set(CM_J_INVARIANTS)
        for e in entries:
            assert j_invariant(e.model) == CM_J_INVARIANTS[e.cm_discriminant]

    def test_tampered_file_rejected(self, tmp_path):
        import json

        bad = [{"label": "x", "coefficients": [0, 0, 0, -1, 1], "cm_discriminant": -4, "notes": ""}]
        path = tmp_path / "curves.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="recomputed j"):
            load_catalog(str(path))

    def test_external_file_round_trip(self, tmp_path):
        import json

        good = [
            {"label": "mine", "coefficients": ["0", "0", "0", "-1", "0"], "cm_discriminant": -4, "notes": "n"}
        ]
        path = tmp_path / "curves.json"
        path.write_text(json.dumps(good))
        entries = load_catalog(str(path))
        assert entries[0].model == E_MINUS_X


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def brute_singular_points(e):
    """Oracle: every (x, y) of F_p^2 on the curve where both partials vanish."""
    f = e.field
    a1, a2, a3, a4, a6 = e.coefficients
    pts = set()
    for xv in range(f.p):
        for yv in range(f.p):
            x, y = FieldElement.of(f, xv), FieldElement.of(f, yv)
            on_curve = y * y + a1 * x * y + a3 * y - (x * x * x + a2 * x * x + a4 * x + a6) == 0
            fx = a1 * y - (3 * x * x + 2 * a2 * x + a4)
            fy = 2 * y + a1 * x + a3
            if on_curve and fx == 0 and fy == 0:
                pts.add((xv, yv))
    return pts


def brute_affine_count(e):
    """Oracle: the affine points of a model over F_p by a full (x, y) scan."""
    p = e.field.p
    a1, a2, a3, a4, a6 = (a.val for a in e.coefficients)
    return sum(
        1
        for x in range(p)
        for y in range(p)
        if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0
    )


def small_models():
    rng = random.Random(2024)
    models = [entry.model for entry in load_catalog()]
    models += [WeierstrassModel.over_q(*(rng.randint(-6, 6) for _ in range(5))) for _ in range(60)]
    # singular over Q: a node, a cusp, and both with a1, a3 != 0
    singular = ((0, 1, 0, 0, 0), (0, 0, 0, 0, 0), (2, 6, 6, 10, 3), (2, 5, 6, 6, -1))
    models += [WeierstrassModel.over_q(*c) for c in singular]
    return models


class TestFibreSolver:
    """The one fibre solver behind counting and point lists, against full
    (x, y) scans."""

    def test_singular_model_has_one_singular_point(self):
        # what count_nonsingular relies on: a Weierstrass cubic is
        # irreducible, so a singular model has exactly one singular point
        seen = set()
        for e in small_models():
            for p in SMALL_PRIMES:
                red = reduce_mod_p(e, p)
                if invariants(red).disc != 0:
                    assert brute_singular_points(red) == set()
                    continue
                assert len(brute_singular_points(red)) == 1, (e, p)
                assert count_nonsingular(red) == brute_affine_count(red), (e, p)
                seen.add(p)
        assert seen == set(SMALL_PRIMES)

    def test_counts_match_brute_scan(self):
        for e in small_models():
            for p in SMALL_PRIMES:
                red = reduce_mod_p(e, p)
                brute = brute_affine_count(red)
                assert _affine_count(red) == len(list(affine_points(red))) == brute, (e, p)

    def test_points_lie_on_the_curve_over_extensions(self):
        for e in (E_MINUS_X, E_PLUS_1, WeierstrassModel.over_q(1, 0, 1, 4, -6)):
            for p, n in ((2, 3), (3, 2), (5, 2)):
                red = reduce_mod_p(e, p)
                if invariants(red).disc == 0:
                    continue
                curve = at_level(red, n)
                f = curve.field
                a1, a2, a3, a4, a6 = (a.val for a in curve.coefficients)
                pts = list(affine_points(curve))
                assert len(set(pts)) == len(pts) == _affine_count(curve)
                for x, y in pts:
                    lhs = f.add(f.mul(y, y), f.mul(f.add(f.mul(a1, x), a3), y))
                    rhs = f.add(f.mul(f.add(f.mul(f.add(x, a2), x), a4), x), a6)
                    assert lhs == rhs

    def test_classifier_node_near_the_guard(self):
        # a node whose nonsingular points are counted by brute force
        node = WeierstrassModel.over_field(PrimeField(9973), 0, 1, 0, 0, 0)
        rt = classify_reduction(node)
        assert rt.kind is ReductionKind.SPLIT_MULTIPLICATIVE
        assert count_nonsingular(node) == 9973 - 1


def tangent_cone_discriminant(e, point):
    """Oracle: a1^2 + 4 a2 of the model moved so that ``point`` is the
    origin; the quadratic part y^2 + a1 xy - a2 x^2 there is a square
    (a cusp) exactly when it is 0, in every characteristic."""
    f = e.field
    x0, y0 = (FieldElement.of(f, v) for v in point)
    shifted = transform(e, AdmissibleTransform(FieldElement.of(f, 1), x0, FieldElement.of(f, 0), y0))
    return shifted.a1 * shifted.a1 + 4 * shifted.a2


class TestClassifierOracle:
    """classify_reduction reads c4 and -c6; the oracle finds the singular
    point by a full (x, y) scan, counts its nonsingular points and looks
    at the tangent cone there."""

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_every_model_over_small_fields(self, p):
        import itertools

        field = PrimeField(p)
        seen = set()
        for coeffs in itertools.product(range(p), repeat=5):
            e = WeierstrassModel.over_field(field, *coeffs)
            rt = classify_reduction(e)
            if invariants(e).disc != 0:
                assert rt.is_good
                continue
            (point,) = brute_singular_points(e)
            assert rt.alpha == p - brute_affine_count(e), coeffs
            cusp = tangent_cone_discriminant(e, point) == 0
            assert (rt.kind is ReductionKind.ADDITIVE) == cusp, coeffs
            seen.add(rt.kind)
        assert seen == {
            ReductionKind.ADDITIVE,
            ReductionKind.SPLIT_MULTIPLICATIVE,
            ReductionKind.NONSPLIT_MULTIPLICATIVE,
        }

    def test_no_fibre_scan_at_odd_p(self, monkeypatch):
        import nclocal.elliptic as elliptic_mod

        def no_scan(f, consts, xs=None):
            raise AssertionError("classify_reduction scanned the fibres")

        monkeypatch.setattr(elliptic_mod, "_fibres", no_scan)
        p = primes_from(AP_GUARD - 10**4, 3, 4, 1)[0]
        for a2, kind in ((1, ReductionKind.SPLIT_MULTIPLICATIVE), (-1, ReductionKind.NONSPLIT_MULTIPLICATIVE)):
            # y^2 = x^3 + a2 x^2: -c6 = 64 a2^3, so split iff a2 is a
            # square, and -1 is not one at p = 3 mod 4
            rt = classify_reduction(reduce_mod_p(WeierstrassModel.over_q(0, a2, 0, 0, 0), p))
            assert rt.kind is kind and rt.alpha == a2
        assert classify_reduction(reduce_mod_p(WeierstrassModel.over_q(0, 0, 0, 0, 0), p)).alpha == 0

    def test_char2_count_check_raises(self, monkeypatch):
        import nclocal.elliptic as elliptic_mod

        node = WeierstrassModel.over_field(PrimeField(2), 1, 0, 0, 0, 0)  # y^2 + xy = x^3
        assert classify_reduction(node).kind is ReductionKind.SPLIT_MULTIPLICATIVE
        monkeypatch.setattr(elliptic_mod, "_affine_count", lambda e: 0)
        with pytest.raises(RuntimeError, match="gives alpha=2, not \\+-1"):
            classify_reduction(node)
