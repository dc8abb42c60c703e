import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclocal.ck_k0 import (
    AbelianGroupInv,
    _presentation_matrix,
    build_lp,
    epsilon,
    epsilons,
    k0_group,
    k0_order,
    k0_signed_order,
)
from nclocal.ffield import PrimeField
from nclocal.intmat import IntMatrix, mat_pow
from intmat_oracle import ck_family


class TestBuildLp:
    def test_spec_values(self):
        assert build_lp(0, 3).entries == (0, 3, -1, 0)
        assert build_lp(1, 2).entries == (1, 2, -1, 0)

    def test_det_and_trace(self):
        for t in range(-10, 11):
            for p in (2, 3, 5, 7):
                m = build_lp(t, p)
                assert m.det() == p and m.trace() == t

    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            build_lp(1, 6)


class TestEpsilon:
    def test_matrix_case(self):
        assert epsilon(PrimeField(3), 2, trace_ap=0) == IntMatrix(2, 2, (-3, 0, 0, -3))

    def test_scalar_cases(self):
        assert epsilon(PrimeField(11), 1, alpha=1) == IntMatrix(1, 1, (0,))
        assert epsilon(PrimeField(11), 2, alpha=-1) == IntMatrix(1, 1, (0,))
        assert epsilon(PrimeField(11), 3, alpha=-1) == IntMatrix(1, 1, (2,))
        assert epsilon(PrimeField(11), 2, alpha=0) == IntMatrix(1, 1, (1,))

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            epsilon(PrimeField(5), 1, alpha=2)

    def test_exactly_one_of_trace_and_alpha(self):
        for kwargs in ({}, {"trace_ap": 1, "alpha": 1}):
            with pytest.raises(ValueError, match="exactly one of trace_ap and alpha"):
                epsilon(PrimeField(5), 1, **kwargs)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(-2000, 2000),
        st.sampled_from([2, 3, 5, 7, 11, 101, 997, 10007, 999999999989]),
        st.integers(1, 12),
    )
    def test_epsilons_match_mat_pow(self, t, p, k):
        # one product per level against binary exponentiation, the oracle
        levels = epsilons(PrimeField(p), k, trace_ap=t)
        assert len(levels) == k
        for n, eps in enumerate(levels, 1):
            assert eps == mat_pow(build_lp(t, p), n)
        assert epsilon(PrimeField(p), k, trace_ap=t) == levels[-1]

    def test_epsilons_scalar_levels(self):
        for alpha in (-1, 0, 1):
            levels = epsilons(PrimeField(11), 6, alpha=alpha)
            assert levels == [IntMatrix(1, 1, (1 - alpha**n,)) for n in range(1, 7)]

    def test_epsilons_validation(self):
        assert epsilons(PrimeField(5), 0, trace_ap=1) == epsilons(PrimeField(5), 0, alpha=1) == []
        with pytest.raises(ValueError, match="nonnegative"):
            epsilons(PrimeField(5), -1, trace_ap=1)
        for n in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                epsilon(PrimeField(5), n, trace_ap=1)
        with pytest.raises(ValueError, match="alpha"):
            epsilons(PrimeField(5), 3, alpha=2)


class TestAbelianGroupInv:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroupInv((4, 2))
        with pytest.raises(ValueError):
            AbelianGroupInv((0, 2))
        AbelianGroupInv((2, 4))
        AbelianGroupInv((2, 0))

    def test_order(self):
        assert AbelianGroupInv((1, 4)).order == 4
        assert AbelianGroupInv((0,)).order == 0
        assert AbelianGroupInv((2, 0)).order == 0

    def test_printing(self):
        assert str(AbelianGroupInv((1, 4))) == "Z/4"
        assert str(AbelianGroupInv((2, 2))) == "Z/2 x Z/2"
        assert str(AbelianGroupInv((0,))) == "Z"
        assert str(AbelianGroupInv((2, 0))) == "Z/2 x Z"
        assert str(AbelianGroupInv((1,))) == "Z/1"


class TestK0:
    def test_worked_example(self):
        eps = IntMatrix(2, 2, (0, 3, -1, 0))
        assert k0_group(eps).invariant_factors == (1, 4)
        assert k0_order(eps) == 4

    def test_scalar_zero_gives_trivial_group(self):
        eps = IntMatrix(1, 1, (0,))
        assert k0_group(eps).invariant_factors == (1,)
        assert k0_order(eps) == 1

    def test_scalar_one_gives_infinite_cyclic(self):
        eps = IntMatrix(1, 1, (1,))
        assert k0_group(eps).invariant_factors == (0,)
        assert k0_order(eps) == 0

    def test_order_matches_product_of_factors(self):
        rng = random.Random(1234)
        for _ in range(400):
            m = IntMatrix(2, 2, tuple(rng.randint(-50, 50) for _ in range(4)))
            group = k0_group(m)
            order = k0_order(m)
            assert group.order == order

    def test_degree_one_identity(self):
        # |K0| at n=1 equals |1 - t + p|, the det expansion
        primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
        for t in range(-20, 21):
            for p in primes:
                assert k0_order(epsilon(PrimeField(p), 1, trace_ap=t)) == abs(1 - t + p)

    def test_power_sum_recurrence(self):
        for t in (-4, -1, 0, 2, 6):
            for p in (2, 3, 5, 7, 11):
                s_prev, s_cur = 2, t
                for n in range(1, 9):
                    lpn = mat_pow(build_lp(t, p), n)
                    assert lpn.trace() == s_cur
                    assert k0_order(lpn) == abs(1 - s_cur + p**n)
                    s_prev, s_cur = s_cur, t * s_cur - p * s_prev

    def test_bad_prime_orders(self):
        def orders(alpha):
            return [k0_order(epsilon(PrimeField(7), n, alpha=alpha)) for n in range(1, 6)]

        assert orders(1) == [1, 1, 1, 1, 1]
        assert orders(-1) == [1, 1, 1, 1, 1]
        assert orders(0) == [0, 0, 0, 0, 0]

    def test_ck_family_n64(self):
        # a size where elimination over Z without reduction modulo the
        # determinant takes tens of seconds from entry growth
        eps = IntMatrix.from_rows(ck_family(64, 64))
        group = k0_group(eps)
        factors = group.invariant_factors
        assert len(factors) == 64
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert group.order == k0_order(eps) == 14262428759922130528

    def test_non_square_matrix_rejected(self):
        # a Cuntz-Krieger matrix is square; 1 x 1 (a bad prime's level) included
        for m in (IntMatrix(1, 2, (1, 2)), IntMatrix(3, 2, (1, 0, 0, 1, 2, 2))):
            for k0 in (k0_group, k0_order, k0_signed_order):
                with pytest.raises(ValueError, match="must be square"):
                    k0(m)

    def test_transpose_convention_immaterial_for_factors(self):
        # invariant factors of coker(I - e^t) and coker(I - e) agree
        rng = random.Random(99)
        for _ in range(200):
            m = IntMatrix(2, 2, tuple(rng.randint(-30, 30) for _ in range(4)))
            transposed = IntMatrix.from_rows(list(zip(*m.to_rows())))
            assert k0_group(m).invariant_factors == k0_group(transposed).invariant_factors


class TestSignedOrder:
    def test_signed_order_is_det_of_i_minus_lp_power(self):
        for t in (-4, 0, 3):
            for p in (2, 5, 7):
                for n in range(1, 6):
                    m = mat_pow(build_lp(t, p), n)
                    expected = (1 - m.at(0, 0)) * (1 - m.at(1, 1)) - m.at(0, 1) * m.at(1, 0)
                    eps = epsilon(PrimeField(p), n, trace_ap=t)
                    assert k0_signed_order(eps) == expected
                    assert k0_order(eps) == abs(expected)

    def test_signed_order_at_bad_primes_is_alpha_power(self):
        for alpha in (-1, 0, 1):
            for n in range(1, 6):
                assert k0_signed_order(epsilon(PrimeField(11), n, alpha=alpha)) == alpha**n

    @staticmethod
    def _check_2x2(entries):
        m = IntMatrix(2, 2, entries)
        signed = k0_signed_order(m)
        assert signed == _presentation_matrix(m).det()
        assert k0_order(m) == abs(signed) == k0_group(m).order
        return signed

    def test_2x2_closed_form_on_a_grid(self):
        # every 2x2 matrix with entries in -3..3: negative entries, and 181
        # with det(I - m) = 0, whose K0 is infinite
        grid = range(-3, 4)
        signed = [self._check_2x2((a, b, c, d)) for a in grid for b in grid for c in grid for d in grid]
        assert signed.count(0) == 259 and min(signed) < 0 < max(signed)

    # m = I - N with N = (xu, xv; yu, yv) of rank <= 1 has det(I - m) = det N = 0
    _infinite_k0 = st.tuples(*[st.integers(-10**6, 10**6)] * 4).map(
        lambda s: (1 - s[0] * s[2], -s[0] * s[3], -s[1] * s[2], 1 - s[1] * s[3])
    )

    @settings(max_examples=300)
    @given(st.tuples(*[st.integers(-10**12, 10**12)] * 4) | _infinite_k0)
    @example((1, 0, 0, 1))
    @example((7, -3, 2, 0))
    def test_2x2_closed_form_against_the_presentation_matrix(self, entries):
        self._check_2x2(entries)

    def test_order_is_group_order(self):
        rng = random.Random(7)
        for _ in range(100):
            m = IntMatrix(3, 3, tuple(rng.randint(-5, 5) for _ in range(9)))
            assert k0_order(m) == k0_group(m).order
