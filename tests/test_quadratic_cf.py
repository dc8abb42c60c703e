import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import pytest
from cf_oracle import (
    FractionQuadratic,
    boundary_to_theta,
    cf_value,
    compare_to,
    conjugate,
    convergents,
    expand_by_repetition,
    fraction_cf_value,
    from_value_pair,
    gl2z_equivalent,
    plus_reciprocal,
    reduced_by_comparison,
    value_pair,
)
from conjugacy_oracle import unimodular_2x2
from hypothesis import assume, given
from hypothesis import strategies as st

from nclocal import quadratic_cf
from nclocal._factor import squarefree_split
from nclocal._limits import JOIN_BLOCK
from nclocal.quadratic_cf import (
    CFExpansion,
    QuadraticIrrational,
    cf_expand,
    incidence_matrix,
    is_reduced,
)

PHI = QuadraticIrrational(1, 5, 2)
SQRT2 = QuadraticIrrational(0, 2, 1)
ONE_PLUS_SQRT2 = QuadraticIrrational(1, 2, 1)


def small_family(p_max=6, q_max=6, d_max=60):
    for p in range(-p_max, p_max + 1):
        for q in range(1, q_max + 1):
            for d in range(2, d_max + 1):
                if squarefree_split(d)[1] == 1:
                    continue
                yield QuadraticIrrational(p, d, q)


class TestConstruction:
    def test_rejects_perfect_square_d(self):
        with pytest.raises(ValueError, match="perfect square"):
            QuadraticIrrational(1, 9, 2)

    def test_rejects_zero_q(self):
        with pytest.raises(ValueError):
            QuadraticIrrational(1, 5, 0)

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            QuadraticIrrational(1, -5, 2)

    def test_normalization_divisibility(self):
        # Q | D - P^2 after canonicalization, for raw triples violating it
        for raw in [(-7, 32, 3), (1, 5, 3), (2, 7, 5), (3, 13, -4)]:
            x = QuadraticIrrational(*raw)
            assert (x.D - x.P * x.P) % x.Q == 0

    def test_equal_values_equal_triples(self):
        assert QuadraticIrrational(0, 8, 2) == SQRT2
        assert QuadraticIrrational(2, 20, 4) == PHI
        assert hash(QuadraticIrrational(0, 8, 2)) == hash(SQRT2)

    def test_sqrt_coefficient_sign_lives_in_q(self):
        # 3 - sqrt(2) has negative irrational part, carried by Q < 0
        x = from_value_pair(Fraction(3), Fraction(-1), 2)
        assert x.Q < 0
        assert float(x) == pytest.approx(3 - 2**0.5)

    def test_parse_round_trip(self):
        for text, expect in [
            ("(1+sqrt(5))/2", PHI),
            ("sqrt(2)", SQRT2),
            ("(0+sqrt(2))/1", SQRT2),
            ("(-1+sqrt(5))/-2", QuadraticIrrational(-1, 5, -2)),
        ]:
            assert QuadraticIrrational.parse(text) == expect
        assert QuadraticIrrational.parse(str(PHI)) == PHI

    def test_parse_guards_the_digits_of_d_only(self):
        edge = "9" * quadratic_cf.D_DIGITS_GUARD
        assert QuadraticIrrational.parse(f"sqrt(000{edge})").D == int(edge)
        with pytest.raises(ValueError, match="guard exceeded"):
            QuadraticIrrational.parse(f"sqrt(1{edge})")
        # construction from integers is not guarded: cf_value builds D of
        # continuant size
        assert QuadraticIrrational(0, 10**22 + 1, 1).D == 10**22 + 1
        x = cf_value(CFExpansion((), (10**12, 3)))
        assert len(str(x.D)) == 25 and cf_expand(x).period == (10**12, 3)

    def test_parse_rejects_garbage(self):
        for bad in ["", "sqrt(x)", "1+2", "(1+sqrt(5)/2"]:
            with pytest.raises(ValueError):
                QuadraticIrrational.parse(bad)


class TestValueClass:
    """The triple and d are the whole state, and cannot change."""

    def test_fields_cannot_be_assigned_or_deleted(self):
        x = QuadraticIrrational(2, 20, 4)
        for name in ("P", "D", "Q", "d"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.not_a_field = 1
        assert (x.P, x.D, x.Q, x.d) == (1, 5, 2, 5)

    def test_copy_and_pickle_rebuild_from_the_triple(self):
        for x in [PHI, QuadraticIrrational(3, 13, -4), QuadraticIrrational(0, 72, 6), QuadraticIrrational(-7, 19, 30)]:
            assert x.__reduce__() == (QuadraticIrrational, (x.P, x.D, x.Q))
            for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert y == x and hash(y) == hash(x)
                assert (y.P, y.D, y.Q, y.d) == (x.P, x.D, x.Q, x.d)

    def test_equality_and_hash_are_those_of_the_triple(self):
        xs = list(small_family(3, 4, 24))
        for x in xs:
            for y in xs:
                assert (x == y) == ((x.P, x.D, x.Q) == (y.P, y.D, y.Q)) == (not x != y)
                if x == y:
                    assert hash(x) == hash(y)
        assert len({(x.P, x.D, x.Q) for x in xs}) == len(set(xs)) < len(xs)
        assert PHI != (1, 5, 2) and PHI != float(PHI)


# D with square factors, P = 0 and negative Q among them
ORACLE_TRIPLES = [
    (p, d, q)
    for d in (2, 3, 5, 8, 12, 18, 20, 45, 50, 72, 98, 243, 1000)
    for p in (-9, -4, -1, 0, 1, 3, 7, 12)
    for q in (-12, -6, -4, -3, -2, -1, 1, 2, 3, 5, 8, 18)
]
RATIONALS = [0, 1, -1, 3, -5, 10**6, Fraction(1, 2), Fraction(-7, 3), Fraction(22, 7), 0.5, -2.25, 1e-3, True]


def _float_or_error(x):
    try:
        return float(x).hex()
    except OverflowError as err:
        return repr(err)


def _assert_matches_fraction_pairs(x, o):
    assert (x.P, x.D, x.Q) == (o.P, o.D, o.Q)
    assert value_pair(x) == o.value_pair()
    c, oc = conjugate(x), o.conjugate()
    assert (c.P, c.D, c.Q) == (oc.P, oc.D, oc.Q)
    assert [compare_to(x, q) for q in RATIONALS] == [o.compare_to(q) for q in RATIONALS]
    assert _float_or_error(x) == _float_or_error(o)


class TestAgainstFractionPairs:
    """The integer canonical form and the operations on triples against
    the Fraction-pair construction of cf_oracle."""

    def test_oracle_triples(self):
        for raw in ORACLE_TRIPLES:
            _assert_matches_fraction_pairs(QuadraticIrrational(*raw), FractionQuadratic(*raw))

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**12), st.integers(-10**20, 10**20).filter(bool))
    def test_sample(self, p, d, q):
        assume(isqrt(d) ** 2 != d)
        _assert_matches_fraction_pairs(QuadraticIrrational(p, d, q), FractionQuadratic(p, d, q))

    def test_float_range_edges(self):
        # bit-identical values, +0.0 included, and the same OverflowError
        # past the float range
        big = int(sys.float_info.max)
        for raw in [
            (big, 2, 1),
            (-big, 8, -1),
            (big, 2 * big * big, 1),
            (2 * big, 2, 1),
            (2 * big, 2, 3),
            (-3 * big, 50, -2),
            (0, 2, 10**400),
            (0, 2, -10**400),
            (0, 8, -3),
            (1, 2, -10**400),
        ]:
            x, o = QuadraticIrrational(*raw), FractionQuadratic(*raw)
            _assert_matches_fraction_pairs(x, o)
        assert _float_or_error(QuadraticIrrational(2 * big, 2, 1)).startswith("OverflowError")
        assert float(QuadraticIrrational(big, 2 * big * big, 1)) == float("inf")
        assert float(QuadraticIrrational(0, 2, -10**400)).hex() == "0x0.0p+0"

    def test_from_value_pair(self):
        for a in (0, 3, Fraction(-5, 4), Fraction(7, 6)):
            for b in (1, -2, Fraction(1, 3), Fraction(-9, 10)):
                for d in (2, 3, 5, 6, 30):
                    x, o = from_value_pair(a, b, d), FractionQuadratic.from_value_pair(a, b, d)
                    _assert_matches_fraction_pairs(x, o)

    def test_cf_value_and_boundary(self):
        for raw in ORACLE_TRIPLES[::5]:
            x, o = QuadraticIrrational(*raw), FractionQuadratic(*raw)
            exp = cf_expand(x)
            value, theta = cf_value(exp), boundary_to_theta(x)
            assert (value.P, value.D, value.Q) == fraction_cf_value(exp).triple == o.triple
            # theta = |x|/(1+|x|) iff theta * (1 + |x|) = |x|, on Fraction pairs
            a, b, d = o.value_pair()
            if o.compare_to(0) < 0:
                a, b = -a, -b
            ta, tb, td = FractionQuadratic(theta.P, theta.D, theta.Q).value_pair()
            assert td == d and (ta * (1 + a) + tb * b * d, ta * b + tb * (1 + a)) == (a, b)


class TestExpand:
    def test_golden_ratio(self):
        e = cf_expand(PHI)
        assert e.preperiod == () and e.period == (1,)

    def test_sqrt2(self):
        e = cf_expand(SQRT2)
        assert e.preperiod == (1,) and e.period == (2,)

    def test_one_plus_sqrt2(self):
        e = cf_expand(ONE_PLUS_SQRT2)
        assert e.preperiod == () and e.period == (2,)

    def test_negative_value_has_negative_a0(self):
        x = QuadraticIrrational(-10, 2, 1)
        e = cf_expand(x)
        assert e.preperiod[0] < 0
        assert cf_value(e) == x

    def test_display(self):
        assert str(cf_expand(PHI)) == "[(1)]"
        assert str(cf_expand(SQRT2)) == "[1; (2)]"

    def test_display_of_long_periods_is_one_plain_join(self):
        # about the blocks in which the digits are joined
        b = JOIN_BLOCK
        for m in (b - 1, b, b + 1, 2 * b + 5):
            period = (1,) * (m - 1) + (2,)
            assert str(CFExpansion((), period)) == "[(" + ", ".join(map(str, period)) + ")]"
            pre = (-3,) + (7,) * m
            text = "[-3; " + ", ".join(map(str, pre[1:] + ("(" + ", ".join(map(str, period)) + ")",))) + "]"
            assert str(CFExpansion(pre, period)) == text
            for preperiod in ((), (-3,), pre):
                display, start, stop = quadratic_cf._display(preperiod, period)
                assert display[start:stop] == ", ".join(map(str, period))
        assert str(CFExpansion((5,), (1, 2))) == "[5; (1, 2)]"

    def test_cf_value_round_trip_family(self):
        for x in small_family():
            assert cf_value(cf_expand(x)) == x

    def test_expansion_invariants_reject_bad_periods(self):
        with pytest.raises(ValueError):
            CFExpansion((), ())
        with pytest.raises(ValueError):
            CFExpansion((), (0,))
        with pytest.raises(ValueError, match="not minimal"):
            CFExpansion((), (2, 2))
        with pytest.raises(ValueError, match="not minimal"):
            CFExpansion((1,), (2, 1, 2, 1))

    def test_digits_below_1_deep_in_a_long_period(self):
        # the digit check runs over the distinct digits; a bad one anywhere
        # in the period is still found
        n = 3 * JOIN_BLOCK
        for bad in (0, -1):
            for at in (1, n // 2, n - 2):
                period = [1 + i % 7 for i in range(n)]
                period[at] = bad
                with pytest.raises(ValueError, match=r"^period entries must be >= 1$"):
                    CFExpansion((), tuple(period))

    def test_minimality_message_names_the_shortest_repeat(self):
        # a prime-exponent check finds the repeat; the message still names
        # the shortest one, as the scan over every length did
        for period, k in [((2, 2), 1), ((1, 2) * 6, 2), ((1, 2) * 3, 2), ((3,) * 12, 1), ((1, 2, 3) * 5, 3)]:
            with pytest.raises(ValueError, match=rf"repeats with length {k}\)"):
                CFExpansion((), period)
        for period in [(1, 2), (1, 1, 2), (1, 2, 1, 2, 1), (2, 1) * 3 + (1,)]:
            assert CFExpansion((), period).period == period

    def test_state_cap_boundary(self, monkeypatch):
        # (-7+sqrt(19))/30 = [-1; 1, 10, (2, 1, 3, 1, 2, 8)]: 3 + 6 states
        x = QuadraticIrrational(-7, 19, 30)
        monkeypatch.setattr(quadratic_cf, "_MAX_CF_STATES", 9)
        assert cf_expand(x) == CFExpansion((-1, 1, 10), (2, 1, 3, 1, 2, 8))
        for cap in (8, 2):
            monkeypatch.setattr(quadratic_cf, "_MAX_CF_STATES", cap)
            with pytest.raises(ValueError, match=r"guard exceeded: continued fraction has more than 10\^6 states"):
                cf_expand(x)

    def test_state_cap_purely_periodic(self, monkeypatch):
        # (7+sqrt(61))/3 is reduced: no preperiod and 11 period states
        x = QuadraticIrrational(7, 61, 3)
        monkeypatch.setattr(quadratic_cf, "_MAX_CF_STATES", 11)
        assert cf_expand(x) == CFExpansion((), (4, 1, 14, 1, 4, 3, 1, 2, 2, 1, 3))
        for cap in (10, 1, 0):
            monkeypatch.setattr(quadratic_cf, "_MAX_CF_STATES", cap)
            with pytest.raises(ValueError, match="guard exceeded"):
                cf_expand(x)

    def test_state_cap_inside_the_preperiod(self, monkeypatch):
        # 3 preperiod states: a cap of 3 stops at the first period state,
        # and smaller caps stop in the preperiod itself
        x = QuadraticIrrational(-7, 19, 30)
        for cap in (3, 1, 0):
            monkeypatch.setattr(quadratic_cf, "_MAX_CF_STATES", cap)
            with pytest.raises(ValueError, match="guard exceeded"):
                cf_expand(x)


class TestReduced:
    def test_spec_examples(self):
        assert is_reduced(PHI)
        assert not is_reduced(SQRT2)
        assert is_reduced(ONE_PLUS_SQRT2)

    def test_galois_pure_periodicity(self):
        # pure periodicity <=> reduced, on the |P|,Q <= 20, D <= 300 family
        checked = 0
        for p in range(-20, 21, 3):
            for q in range(1, 21, 3):
                for d in range(2, 301, 7):
                    if squarefree_split(d)[1] == 1:
                        continue
                    x = QuadraticIrrational(p, d, q)
                    assert cf_expand(x).is_purely_periodic == is_reduced(x)
                    checked += 1
        assert checked > 500


def canonical_family():
    """Every canonical (P, D, Q) with nonsquare D < 200, |P| <= 30 and
    1 <= |Q| <= 30: Q | D - P^2 is needed, and canonicalization must
    return the triple unchanged."""
    for d in range(2, 200):
        if isqrt(d) ** 2 == d:
            continue
        for p in range(-30, 31):
            for q in range(-30, 31):
                if q and (d - p * p) % q == 0:
                    x = QuadraticIrrational(p, d, q)
                    if (x.P, x.D, x.Q) == (p, d, q):
                        yield x


@st.composite
def quadratic_irrationals(draw):
    d = draw(st.integers(2, 5000))
    assume(isqrt(d) ** 2 != d)
    q = draw(st.integers(-60, 60).filter(bool))
    return QuadraticIrrational(draw(st.integers(-10**5, 10**5)), d, q)


class TestAgainstOracle:
    """cf_expand against the first-repetition expansion of cf_oracle."""

    def test_canonical_family(self):
        checked = 0
        for x in canonical_family():
            exp = cf_expand(x)
            assert (exp.preperiod, exp.period) == expand_by_repetition(x), x
            checked += 1
        assert checked == 74898

    @given(quadratic_irrationals())
    def test_sample(self, x):
        exp = cf_expand(x)
        assert (exp.preperiod, exp.period) == expand_by_repetition(x)

    def test_benchmark_pool_periods(self):
        # the three D near 10^12 of the ck_k0 continued-fraction pool
        for d, length in [(1000000000039, 532572), (1000000000787, 547242), (1000000001123, 536218)]:
            x = QuadraticIrrational(0, d, 1)
            exp = cf_expand(x)
            assert len(exp.period) == length
            assert (exp.preperiod, exp.period) == expand_by_repetition(x)

    def test_pure_periodicity_is_reducedness(self):
        # Galois's theorem on the oracle's side: a state known only by its
        # first repetition is purely periodic iff exact comparisons call it
        # reduced; the integer test of is_reduced agrees with both
        periodic = 0
        for x in canonical_family():
            pure = not expand_by_repetition(x)[0]
            assert pure == reduced_by_comparison(x) == is_reduced(x), x
            periodic += pure
        assert 0 < periodic < 74898


def _is_mirror_symmetric(period):
    """The period is a cyclic shift of its own reversal."""
    text = "".join(f",{a}" for a in period) + ","
    mirror = "".join(f",{a}" for a in reversed(period)) + ","
    return mirror in text + text[1:]


def _assert_expands_as_the_oracle(x):
    exp = cf_expand(x)
    assert (exp.preperiod, exp.period) == expand_by_repetition(x), x
    return exp


class TestMirroredPeriods:
    """cf_expand steps a mirror-symmetric period only up to its second
    centre of symmetry; its expansions against the first-repetition
    oracle of cf_oracle, and against the cf_value round trip where the
    values are small."""

    @staticmethod
    def family():
        for d in range(2, 3000, 7):
            if isqrt(d) ** 2 == d:
                continue
            for p in range(-3, 4):
                for q in (1, 2, 3, 5, -4):
                    yield QuadraticIrrational(p, d, q)

    def test_symmetric_and_asymmetric_family(self):
        kinds = [0, 0]
        for x in self.family():
            exp = _assert_expands_as_the_oracle(x)
            kinds[_is_mirror_symmetric(exp.period)] += 1
        # neither kind may drop out of the family unnoticed
        assert min(kinds) >= 1000, kinds

    def test_no_digit_after_a0_below_1(self):
        # every complete quotient after x itself exceeds 1
        for x in self.family():
            exp = cf_expand(x)
            assert min(exp.period) >= 1 and all(a >= 1 for a in exp.preperiod[1:]), x

    def test_periods_of_length_one_and_two(self):
        for n in range(1, 40):
            # (n+sqrt(n^2+4))/2 = [(n)], sqrt(n^2+1) = [n; (2n)] and
            # sqrt(n^2+2) = [n; (n, 2n)]; 5 + 1/x shares the period of x
            for x, period in [
                (QuadraticIrrational(n, n * n + 4, 2), (n,)),
                (QuadraticIrrational(0, n * n + 1, 1), (2 * n,)),
                (QuadraticIrrational(0, n * n + 2, 1), (n, 2 * n)),
                (QuadraticIrrational(n, n * n + 2, 1), (2 * n, n)),
            ]:
                y = plus_reciprocal(x, 5)
                assert _assert_expands_as_the_oracle(x).period == period
                assert len(_assert_expands_as_the_oracle(y).period) == len(period)
                assert cf_value(cf_expand(x)) == x and cf_value(cf_expand(y)) == y

    @pytest.mark.parametrize(
        "triple, centre", [((4, 19, 1), 0), ((8, 71, 1), 0), ((1, 13, 3), 1), ((2, 10, 3), 1), ((4, 34, 3), 1)]
    )
    def test_centre_at_the_first_step(self, triple, centre):
        # P_1 = P_0 is the centre c = 0, Q_1 = Q_0 alone the centre c = 1
        x = QuadraticIrrational(*triple)
        p, d, q = triple
        assert is_reduced(x) and (x.P, x.D, x.Q) == triple
        a = (p + isqrt(d)) // q
        p1 = a * q - p
        q1 = (d - p1 * p1) // q
        assert (0 if p1 == p else 1 if q1 == q else None) == centre
        for y in (x, plus_reciprocal(x, 5), plus_reciprocal(plus_reciprocal(x, 2), -3)):
            assert cf_value(_assert_expands_as_the_oracle(y)) == y

    def test_state_cap_at_the_length_of_symmetric_expansions(self, monkeypatch):
        # preperiod plus period states is the cap that passes, one less is refused
        cases = [(x, cf_expand(x)) for x in small_family(4, 4, 60)]
        cases = [(x, exp) for x, exp in cases if _is_mirror_symmetric(exp.period)]
        assert len(cases) > 1000
        for x, exp in cases:
            states = len(exp.preperiod) + len(exp.period)
            monkeypatch.setattr(quadratic_cf, "_MAX_CF_STATES", states)
            assert cf_expand(x) == exp
            monkeypatch.setattr(quadratic_cf, "_MAX_CF_STATES", states - 1)
            with pytest.raises(ValueError, match=r"^guard exceeded: continued fraction has more than 10\^6 states$"):
                cf_expand(x)


class TestIdentityChecks:
    """The canonical-form check raises, so it holds under python -O."""

    @pytest.mark.parametrize(
        "patch, call, message",
        [
            ("q.lcm = lambda *vals: 3", "q.QuadraticIrrational(1, 5, 2)", "canonical form of 1/2 + 1/2*sqrt(5)"),
        ],
        ids=["canonical_form"],
    )
    def test_checks_survive_optimize_flag(self, patch, call, message):
        code = f"import nclocal.quadratic_cf as q\n{patch}\n{call}\n"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 1 and f"RuntimeError: {message}" in proc.stderr, proc.stderr


class TestConvergents:
    def test_alternating_and_error_bound(self):
        for x in [PHI, SQRT2, QuadraticIrrational(-3, 19, 5), QuadraticIrrational(7, 13, 2)]:
            e = cf_expand(x)
            cs = convergents(e, 8)
            signs = [compare_to(x, c) for c in cs]
            assert all(s == (1 if i % 2 == 0 else -1) for i, s in enumerate(signs))
            # |x - p_n/q_n| < 1/(q_n q_{n+1}), checked exactly on both sides
            for i in range(len(cs) - 1):
                qn, qn1 = cs[i].denominator, cs[i + 1].denominator
                lo = cs[i] - Fraction(1, qn * qn1)
                hi = cs[i] + Fraction(1, qn * qn1)
                assert compare_to(x, lo) > 0 and compare_to(x, hi) < 0


class TestIncidenceMatrix:
    def test_spec_examples(self):
        assert incidence_matrix([1]).entries == (1, 1, 1, 0)
        assert incidence_matrix([2, 1]).entries == (3, 2, 1, 1)
        m = incidence_matrix([2])
        assert m.entries == (2, 1, 1, 0)
        assert m.trace() ** 2 - 4 == 0

    def test_determinant_parity(self):
        for word in [(1,), (2, 1), (1, 2, 3), (3, 3, 2, 1)]:
            assert incidence_matrix(word).det() == (-1) ** len(word)

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError, match="empty period"):
            incidence_matrix([])

    def test_entries_nonnegative(self):
        m = incidence_matrix([1, 3, 2])
        assert all(e >= 0 for e in m.entries)

    def test_fixed_vector(self):
        # A (theta, 1) = lambda (theta, 1) with lambda = r*theta + s, exactly
        for word in [(1,), (2,), (2, 1), (1, 1, 2), (3, 1, 2, 1)]:
            m = incidence_matrix(word)
            p, q, r, s = m.entries
            theta = QuadraticIrrational(p - s, (p - s) ** 2 + 4 * r * q, 2 * r)
            a, b, d = value_pair(theta)
            lam = (r * a + s, r * b)  # lambda = r*theta + s in Q(sqrt(d))
            top = (p * a + q, p * b)  # first row applied to (theta, 1)
            assert top == (lam[0] * a + lam[1] * b * d, lam[0] * b + lam[1] * a)
            bottom = (r * a + s, r * b)  # second row applied to (theta, 1)
            assert bottom == lam


class TestBoundary:
    def test_one_plus_sqrt2(self):
        theta = boundary_to_theta(ONE_PLUS_SQRT2)
        assert theta == QuadraticIrrational(0, 2, 2)
        assert abs(float(theta) - (2**0.5) / 2) < 1e-12

    def test_golden(self):
        assert boundary_to_theta(PHI) == QuadraticIrrational(-1, 5, 2)

    def test_even_under_negation(self):
        neg = QuadraticIrrational(1, 5, -2)  # -(1+sqrt(5))/2
        assert boundary_to_theta(neg) == QuadraticIrrational(-1, 5, 2)

    def test_lands_in_unit_interval(self):
        for x in small_family(4, 4, 30):
            theta = boundary_to_theta(x)
            assert compare_to(theta, 0) > 0 and compare_to(theta, 1) < 0


class TestGL2Z:
    def test_reflexive(self):
        for x in [PHI, SQRT2, ONE_PLUS_SQRT2]:
            assert gl2z_equivalent(x, x)

    def test_shift_pair(self):
        assert gl2z_equivalent(SQRT2, ONE_PLUS_SQRT2)

    def test_different_fields(self):
        assert not gl2z_equivalent(PHI, ONE_PLUS_SQRT2)

    def test_equivalence_relation_on_sample(self):
        sample = [
            PHI,
            SQRT2,
            ONE_PLUS_SQRT2,
            QuadraticIrrational(0, 3, 1),
            QuadraticIrrational(1, 3, 1),
            QuadraticIrrational(0, 7, 1),
            QuadraticIrrational(2, 5, 1),
            QuadraticIrrational(-1, 2, 1),
        ]
        rel = {(i, j): gl2z_equivalent(x, y) for i, x in enumerate(sample) for j, y in enumerate(sample)}
        for i in range(len(sample)):
            assert rel[(i, i)]
            for j in range(len(sample)):
                assert rel[(i, j)] == rel[(j, i)]
                for k in range(len(sample)):
                    if rel[(i, j)] and rel[(j, k)]:
                        assert rel[(i, k)]

    def test_cross_validated_by_moebius_witness(self):
        # positive verdicts admit an explicit unimodular Moebius witness;
        # the small-bound search finds nothing for negative verdicts
        assert gl2z_equivalent(SQRT2, ONE_PLUS_SQRT2)
        assert _moebius_witness(SQRT2, ONE_PLUS_SQRT2, 3) is not None
        assert not gl2z_equivalent(PHI, ONE_PLUS_SQRT2)
        assert _moebius_witness(PHI, ONE_PLUS_SQRT2, 6) is None


def _moebius_witness(x, y, bound):
    ax, bx, dx = value_pair(x)
    ay, by, dy = value_pair(y)
    if dx != dy:
        return None
    for m in unimodular_2x2(bound):
        a, b, c, d = m.entries
        # (a*x + b) == y * (c*x + d) in Q(sqrt(dx))
        num = (a * ax + b, a * bx)
        den = (c * ax + d, c * bx)
        lhs = num
        rhs = (ay * den[0] + by * den[1] * dx, ay * den[1] + by * den[0])
        if lhs == rhs:
            return m
    return None


class TestAgainstSympy:
    def test_cf_expand_matches_continued_fraction_periodic(self):
        # the criterion-7 family (|P| <= 10, Q <= 10, D <= 200) holds about
        # 38,000 inputs, and sympy takes 10-80 ms on each new one; every
        # third D is checked at one seeded (P, Q)
        periodic = pytest.importorskip("sympy.ntheory.continued_fraction").continued_fraction_periodic
        rng = random.Random(7)
        checked = 0
        for d in range(2, 201, 3):
            if squarefree_split(d)[1] == 1:
                continue
            p, q = rng.randint(-10, 10), rng.randint(1, 10)
            exp = cf_expand(QuadraticIrrational(p, d, q))
            *preperiod, period = periodic(p, q, d)
            assert (exp.preperiod, exp.period) == (tuple(preperiod), tuple(period)), (p, d, q)
            checked += 1
        assert checked == 67
