import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nclocal._factor import is_prime
from nclocal.catalog import CM_J_INVARIANTS, load_catalog
from nclocal.elliptic import (
    AP_GUARD,
    MESTRE_BOUND,
    AdmissibleTransform,
    ReductionKind,
    WeierstrassModel,
    classify_reduction,
    count_nonsingular,
    count_points,
    group_structure,
    invariants,
    isomorphic_over_closure,
    isomorphism_witness,
    j_invariant,
    model_over_ext,
    point_counts_via_recurrence,
    reduce_mod_p,
    trace_of_frobenius,
    transform,
)
from nclocal.elliptic import _affine_count, _affine_points_raw, _singular_points
from nclocal.ffield import FieldElement, PrimeField, finite_field

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
            assert transform(transform(e, t1), t2) == transform(e, t1.then(t2))

    def test_inverse(self):
        t = AdmissibleTransform.over_q(Fraction(2, 3), 1, -2, 5)
        e = E_PLUS_1
        assert transform(transform(e, t), t.inverse()) == e

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
        assert count_nonsingular(e, 1) == 4

    def test_nonsplit_node(self):
        f5 = PrimeField(5)
        e = WeierstrassModel.over_field(f5, 0, 2, 0, 0, 0)  # y^2 = x^3 + 2x^2
        rt = classify_reduction(e)
        assert rt.kind is ReductionKind.NONSPLIT_MULTIPLICATIVE and rt.alpha == -1
        assert count_nonsingular(e, 1) == 6

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
                assert count_nonsingular(e, 1) == p - rt.alpha

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
        assert count_points(reduce_mod_p(E_MINUS_X, 5), 2) == 32

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
                        assert count_points(red, n) == ns[n - 1], (p, n)

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
        assert count_points(e, 1) == direct == 3
        # and over F_4 and F_8, against the trace recurrence
        ap = 2 + 1 - 3
        counts = point_counts_via_recurrence(ap, 2, 3)
        assert count_points(e, 2) == counts[1] == 9
        assert count_points(e, 3) == counts[2]

    def test_singular_rejected(self):
        f5 = PrimeField(5)
        e = WeierstrassModel.over_field(f5, 0, 1, 0, 0, 0)
        with pytest.raises(ValueError, match="singular"):
            count_points(e, 1)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            count_points(reduce_mod_p(E_MINUS_X, 5), 11)

    def test_extension_guard(self):
        # F_{p^n} stops at 10^6 elements for n > 1; F_p goes on to 10^7
        with pytest.raises(ValueError, match="guard exceeded: p\\^n > 10\\^6"):
            count_points(reduce_mod_p(E_MINUS_X, 1009), 2)

    def test_counts_independent_of_modulus(self):
        # the F_9 point count does not depend on which irreducible modulus
        # presents the field
        from nclocal.elliptic import _affine_points_raw
        from nclocal.ffield import ExtField

        for e in (E_MINUS_X, E_PLUS_1):
            red = reduce_mod_p(e, 7)
            counts = []
            for modulus in [(1, 0, 1), (3, 1, 1), (4, 0, 1)]:  # irreducible over F_7
                ext = ExtField(7, 2, modulus)
                counts.append(len(list(_affine_points_raw(model_over_ext(red, ext)))) + 1)
            assert len(set(counts)) == 1
            assert counts[0] == count_points(red, 2)

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


class TestFastTrace:
    """a_p by baby-step giant-step above MESTRE_BOUND, against the
    brute-force oracle count_points."""

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
                assert g.order == count_points(red, n)
                d1, d2 = g.invariant_factors
                assert (p**n - 1) % d1 == 0
                assert d1 * d2 == g.order and d2 % d1 == 0

    def test_d1_divides_gcd_d2_qm1(self):
        import math

        for p in (5, 13):
            red = reduce_mod_p(E_MINUS_X, p)
            d1, d2 = group_structure(red).invariant_factors
            assert math.gcd(d2, p - 1) % d1 == 0


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
    """The one fibre solver behind counting, point lists and singular points,
    against full (x, y) scans."""

    def test_singular_points_match_brute_scan(self):
        seen = set()
        for e in small_models():
            for p in SMALL_PRIMES:
                red = reduce_mod_p(e, p)
                if invariants(red).disc != 0:
                    assert _singular_points(red) == []
                    continue
                assert set(_singular_points(red)) == brute_singular_points(red), (e, p)
                seen.add(p)
        assert seen == set(SMALL_PRIMES)

    def test_counts_match_brute_scan(self):
        for e in small_models():
            for p in SMALL_PRIMES:
                red = reduce_mod_p(e, p)
                brute = brute_affine_count(red)
                assert _affine_count(red, 1) == len(list(_affine_points_raw(red))) == brute, (e, p)

    def test_points_lie_on_the_curve_over_extensions(self):
        for e in (E_MINUS_X, E_PLUS_1, WeierstrassModel.over_q(1, 0, 1, 4, -6)):
            for p, n in ((2, 3), (3, 2), (5, 2)):
                red = reduce_mod_p(e, p)
                if invariants(red).disc == 0:
                    continue
                curve = model_over_ext(red, finite_field(p, n))
                f = curve.field
                a1, a2, a3, a4, a6 = (a.val for a in curve.coefficients)
                pts = list(_affine_points_raw(curve))
                assert len(set(pts)) == len(pts) == _affine_count(red, n)
                for x, y in pts:
                    lhs = f.add(f.mul(y, y), f.mul(f.add(f.mul(a1, x), a3), y))
                    rhs = f.add(f.mul(f.add(f.mul(f.add(x, a2), x), a4), x), a6)
                    assert lhs == rhs

    def test_classifier_node_near_the_guard(self):
        # a node just below CLASSIFY_GUARD
        node = WeierstrassModel.over_field(PrimeField(9973), 0, 1, 0, 0, 0)
        assert _singular_points(node) == [(0, 0)]
        rt = classify_reduction(node)
        assert rt.kind is ReductionKind.SPLIT_MULTIPLICATIVE
        assert count_nonsingular(node) == 9973 - 1

    def test_classify_shift_check_raises(self, monkeypatch):
        import nclocal.elliptic as elliptic_mod

        node = WeierstrassModel.over_field(PrimeField(5), 0, 1, 0, 0, 0)
        monkeypatch.setattr(elliptic_mod, "_singular_points", lambda e: [(1, 0)])
        with pytest.raises(RuntimeError, match="does not move to the origin"):
            classify_reduction(node)
