import random

import pytest

from nclocal.ck_k0 import (
    AbelianGroupInv,
    CKDescriptor,
    build_lp,
    epsilon,
    k0_group,
    k0_order,
    k0_order_sequence,
    k0_signed_order,
)
from nclocal.intmat import IntMatrix, mat_pow


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
        e = epsilon(3, 2, True, trace_ap=0)
        assert e.kind == "matrix" and e.matrix.entries == (-3, 0, 0, -3)
        assert e.source == {"p": 3, "n": 2, "trace_ap": 0}

    def test_scalar_cases(self):
        assert epsilon(11, 1, False, alpha=1).scalar == 0
        assert epsilon(11, 2, False, alpha=-1).scalar == 0
        assert epsilon(11, 3, False, alpha=-1).scalar == 2
        assert epsilon(11, 2, False, alpha=0).scalar == 1

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            epsilon(5, 1, False, alpha=2)

    def test_good_requires_trace(self):
        with pytest.raises(ValueError):
            epsilon(5, 1, True)


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
        eps = CKDescriptor(kind="matrix", matrix=IntMatrix(2, 2, (0, 3, -1, 0)))
        assert k0_group(eps).invariant_factors == (1, 4)
        assert k0_order(eps) == 4

    def test_scalar_zero_gives_trivial_group(self):
        eps = CKDescriptor(kind="scalar", scalar=0)
        assert k0_group(eps).invariant_factors == (1,)
        assert k0_order(eps) == 1

    def test_scalar_one_gives_infinite_cyclic(self):
        eps = CKDescriptor(kind="scalar", scalar=1)
        assert k0_group(eps).invariant_factors == (0,)
        assert k0_order(eps) == 0

    def test_order_matches_product_of_factors(self):
        rng = random.Random(1234)
        for _ in range(400):
            m = IntMatrix(2, 2, tuple(rng.randint(-50, 50) for _ in range(4)))
            eps = CKDescriptor(kind="matrix", matrix=m)
            group = k0_group(eps)
            order = k0_order(eps)
            assert group.order == order

    def test_degree_one_identity(self):
        # |K0| at n=1 equals |1 - t + p|, the det expansion
        primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
        for t in range(-20, 21):
            for p in primes:
                assert k0_order(epsilon(p, 1, True, trace_ap=t)) == abs(1 - t + p)

    def test_power_sum_recurrence(self):
        for t in (-4, -1, 0, 2, 6):
            for p in (2, 3, 5, 7, 11):
                s_prev, s_cur = 2, t
                for n in range(1, 9):
                    lpn = mat_pow(build_lp(t, p), n)
                    assert lpn.trace() == s_cur
                    eps = CKDescriptor(kind="matrix", matrix=lpn)
                    assert k0_order(eps) == abs(1 - s_cur + p**n)
                    s_prev, s_cur = s_cur, t * s_cur - p * s_prev

    def test_bad_prime_orders(self):
        assert k0_order_sequence(7, 5, False, alpha=1) == [1, 1, 1, 1, 1]
        assert k0_order_sequence(7, 5, False, alpha=-1) == [1, 1, 1, 1, 1]
        assert k0_order_sequence(7, 5, False, alpha=0) == [0, 0, 0, 0, 0]

    def test_transpose_convention_immaterial_for_factors(self):
        # invariant factors of coker(I - e^t) and coker(I - e) agree
        rng = random.Random(99)
        for _ in range(200):
            m = IntMatrix(2, 2, tuple(rng.randint(-30, 30) for _ in range(4)))
            eps = CKDescriptor(kind="matrix", matrix=m)
            eps_t = CKDescriptor(kind="matrix", matrix=m.transpose())
            assert k0_group(eps).invariant_factors == k0_group(eps_t).invariant_factors


class TestSignedOrder:
    def test_signed_order_is_det_of_i_minus_lp_power(self):
        for t in (-4, 0, 3):
            for p in (2, 5, 7):
                for n in range(1, 6):
                    m = mat_pow(build_lp(t, p), n)
                    expected = (1 - m.at(0, 0)) * (1 - m.at(1, 1)) - m.at(0, 1) * m.at(1, 0)
                    eps = epsilon(p, n, True, trace_ap=t)
                    assert k0_signed_order(eps) == expected
                    assert k0_order(eps) == abs(expected)

    def test_signed_order_at_bad_primes_is_alpha_power(self):
        for alpha in (-1, 0, 1):
            for n in range(1, 6):
                assert k0_signed_order(epsilon(11, n, False, alpha=alpha)) == alpha**n

    def test_order_is_group_order(self):
        rng = random.Random(7)
        for _ in range(100):
            m = IntMatrix(3, 3, tuple(rng.randint(-5, 5) for _ in range(9)))
            eps = CKDescriptor(kind="matrix", matrix=m)
            assert k0_order(eps) == k0_group(eps).order
