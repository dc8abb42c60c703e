import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclocal.intmat import IntMatrix, identity, invariant_factors, mat_pow
from nclocal.quadratic_cf import incidence_matrix
from conjugacy_oracle import (
    _verified_conjugate,
    brute_force_conjugator,
    conjugacy_test,
    cyclically_equivalent,
    unimodular_2x2,
    word_of_matrix,
)
from intmat_oracle import ck_family, determinantal_divisors, leibniz_det

M = IntMatrix.from_rows


class TestBasics:
    def test_parse_and_str(self):
        m = IntMatrix.parse("[[1,2],[3,4]]")
        assert m.to_rows() == [[1, 2], [3, 4]]
        assert str(m) == "[[1,2],[3,4]]"
        with pytest.raises(ValueError):
            IntMatrix.parse("[[1,2],[3]]")
        with pytest.raises(ValueError):
            IntMatrix.parse("nope")

    @pytest.mark.parametrize("text", ["[[0.9,3],[-1,true]]", '[[0,3],[-1,"0"]]', "[[1.0]]", "[[false]]"])
    def test_parse_rejects_non_integer_entries(self, text):
        # JSON floats, booleans and strings are not truncated or converted
        with pytest.raises(ValueError, match="entries must be integers"):
            IntMatrix.parse(text)

    def test_det_trace(self):
        assert M([[1, 1], [-3, 1]]).det() == 4
        assert M([[2, 0, 1], [1, 3, 2], [0, 1, 1]]).det() == 2 * (3 - 2) + 1 * (1 - 0)
        assert M([[5]]).det() == 5
        assert M([[1, 2], [3, 4]]).trace() == 5

    def test_mul_dimension_check(self):
        with pytest.raises(ValueError):
            M([[1, 2]]) * M([[1, 2]])


class TestMatPow:
    def test_fibonacci_square(self):
        assert mat_pow(M([[1, 1], [1, 0]]), 2).entries == (2, 1, 1, 1)

    def test_zeroth_power_is_identity(self):
        for rows in ([[3, 1], [7, 2]], [[0, 3], [-1, 0]]):
            assert mat_pow(M(rows), 0) == identity(2)

    def test_l3_square(self):
        assert mat_pow(M([[0, 3], [-1, 0]]), 2).entries == (-3, 0, 0, -3)

    def test_large_exponent_agrees_with_naive(self):
        a = M([[2, 1], [1, 1]])
        naive = identity(2)
        for _ in range(13):
            naive = naive * a
        assert mat_pow(a, 13) == naive

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(M([[1, 2, 3], [4, 5, 6]]), 2)


def snf_checks(m):
    diag = list(invariant_factors(m))
    assert len(diag) == min(m.rows, m.cols)
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    if max(m.rows, m.cols) <= 4:
        assert diag == determinantal_divisors(m)
    return diag


class TestSmithNormalForm:
    def test_worked_example(self):
        diag = snf_checks(M([[1, 1], [-3, 1]]))
        assert diag == [1, 4]

    def test_identity(self):
        assert snf_checks(identity(3)) == [1, 1, 1]

    def test_already_diagonal(self):
        assert snf_checks(M([[2, 0], [0, 2]])) == [2, 2]

    def test_zero_matrix(self):
        assert snf_checks(M([[0, 0], [0, 0]])) == [0, 0]

    def test_rectangular(self):
        assert snf_checks(M([[2, 4, 6], [4, 8, 12]])) == [2, 0]

    def test_divisibility_needs_fixup(self):
        # diag(2,3) is not a divisor chain; the gcd/lcm pass makes it 1 | 6
        assert snf_checks(M([[2, 0], [0, 3]])) == [1, 6]

    def test_product_of_factors_is_abs_det(self):
        rng = random.Random(20240619)
        for _ in range(300):
            n = rng.choice((2, 3))
            m = M([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)])
            diag = snf_checks(m)
            det = m.det()
            if det != 0:
                prod = 1
                for d in diag:
                    prod *= d
                assert prod == abs(det)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=4, max_size=4))
    def test_random_2x2_property(self, entries):
        snf_checks(IntMatrix(2, 2, tuple(entries)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-15, 15), min_size=6, max_size=6))
    def test_random_2x3_property(self, entries):
        snf_checks(IntMatrix(2, 3, tuple(entries)))

    def test_no_unit_pivot(self):
        # every entry shares a factor with the determinant, so the
        # elimination mod D takes gcd steps instead of unit pivots
        assert snf_checks(M([[4, 6], [6, 4]])) == [2, 10]
        assert snf_checks(M([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])) == [2, 2, 156]
        rng = random.Random(11)
        for _ in range(300):
            n = rng.choice((2, 3, 4))
            k = rng.choice((2, 3, 4, 6))
            snf_checks(M([[k * rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]))

    def test_rank_deficient_and_rectangular(self):
        rng = random.Random(12)
        for _ in range(300):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            if r > 1:
                rows[-1] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(rows[0], rows[1 % (r - 1)])]
            snf_checks(M(rows))

    def test_det_agrees_with_leibniz(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.choice((3, 4))
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:
                rows[0] = [0] * n if rng.random() < 0.5 else list(rows[1])
            assert M(rows).det() == leibniz_det(rows)

    def test_wrong_diagonal_is_caught(self, monkeypatch):
        import nclocal.intmat as intmat

        monkeypatch.setattr(intmat, "_diagonal_mod", lambda a, d: [2, 2])
        with pytest.raises(RuntimeError, match="2x2 matrix"):
            invariant_factors(M([[3, 0], [0, 1]]))


def presentation(rows):
    n = len(rows)
    return M([[(i == j) - rows[j][i] for j in range(n)] for i in range(n)])


class TestAgainstSympy:
    @pytest.fixture(autouse=True)
    def sympy_factors(self):
        pytest.importorskip("sympy")
        from sympy import Matrix
        from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors
        from sympy.polys.domains import ZZ

        self.expected = lambda m: [int(d) for d in sympy_invariant_factors(Matrix(m.to_rows()), domain=ZZ)]

    def test_random_square(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(1, 7)
            m = M([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
            assert list(invariant_factors(m)) == self.expected(m)

    def test_random_rectangular(self):
        rng = random.Random(22)
        for _ in range(200):
            r, c = rng.randint(1, 7), rng.randint(1, 7)
            m = M([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])
            assert list(invariant_factors(m)) == self.expected(m)

    def test_random_rank_deficient(self):
        rng = random.Random(23)
        for _ in range(200):
            r, c, k = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 3)
            left = M([[rng.randint(-5, 5) for _ in range(k)] for _ in range(r)])
            right = M([[rng.randint(-5, 5) for _ in range(c)] for _ in range(k)])
            m = left * right
            assert list(invariant_factors(m)) == self.expected(m)

    def test_ck_family(self):
        for n in (24, 32, 40, 48):
            for seed in range(2):
                m = presentation(ck_family(n, 100 * n + seed))
                assert list(invariant_factors(m)) == self.expected(m)


class TestWordRecovery:
    def test_round_trip(self):
        for word in [(1,), (3,), (2, 1), (1, 2), (1, 1), (2, 1, 3), (1, 1, 1, 1)]:
            assert word_of_matrix(incidence_matrix(word)) == word

    def test_non_words(self):
        assert word_of_matrix(identity(2)) is None
        assert word_of_matrix(M([[0, 3], [-1, 0]])) is None
        assert word_of_matrix(M([[2, 0], [0, 2]])) is None

    def test_cyclic_equivalence(self):
        assert cyclically_equivalent([2, 1], [1, 2]) == 1
        assert cyclically_equivalent([1, 2, 3], [3, 1, 2]) == 2
        assert cyclically_equivalent([1, 2], [2, 2]) is None
        assert cyclically_equivalent([1, 2], [1, 2, 1]) is None


class TestConjugacy:
    def test_self_conjugate(self):
        a = M([[3, 2], [1, 1]])
        v = conjugacy_test(a, a, 5)
        assert v.is_conjugate and v.witness == identity(2)

    def test_shifted_periods(self):
        a, b = incidence_matrix([2, 1]), incidence_matrix([1, 2])
        v = conjugacy_test(a, b, 5)
        assert v.is_conjugate
        w = v.witness
        assert w.det() in (1, -1)
        assert w * a == b * w

    def test_trace_mismatch(self):
        v = conjugacy_test(M([[1, 1], [1, 0]]), M([[2, 1], [1, 0]]), 5)
        assert v.status == "not_conjugate" and "trace" in v.reason

    def test_det_mismatch(self):
        a = M([[2, 1], [1, 1]])  # trace 3, det 1
        b = M([[3, 1], [1, 0]])  # trace 3, det -1
        v = conjugacy_test(a, b, 5)
        assert v.status == "not_conjugate" and "determinant" in v.reason

    def test_cyclic_mismatch_same_invariants(self):
        # words [1,4] and [2,2]: both det +1, traces 6 and 6; not shifts
        a, b = incidence_matrix([1, 4]), incidence_matrix([2, 2])
        assert a.trace() == b.trace() == 6 and a.det() == b.det() == 1
        v = conjugacy_test(a, b, 5)
        assert v.status == "not_conjugate" and "cyclic" in v.reason
        assert brute_force_conjugator(a, b, 6) is None

    def test_unknown_outside_word_class(self):
        # conjugate by a large matrix so the bounded search misses it
        a = M([[0, 3], [-1, 0]])
        g = M([[12, 7], [5, 3]])  # det 1
        ginv = M([[3, -7], [-5, 12]])
        b = g * a * ginv
        v = conjugacy_test(a, b, 2)
        assert v.status == "unknown" and v.bound == 2
        v2 = conjugacy_test(a, b, 12)
        assert v2.is_conjugate

    def test_trace_det_invariance_exhaustive(self):
        # conjugation preserves trace and det: all unimodular B, all A, entries <= 3
        mats = [tuple(t) for t in product(range(-3, 4), repeat=4)]
        bs = [b for b in mats if b[0] * b[3] - b[1] * b[2] in (1, -1)]
        for bb in bs[::7]:  # deterministic stride keeps runtime sane
            b0, b1, b2, b3 = bb
            det_b = b0 * b3 - b1 * b2
            for aa in mats[::11]:
                a0, a1, a2, a3 = aa
                # B*A*B^-1 computed via adjugate
                c0 = b0 * a0 + b1 * a2
                c1 = b0 * a1 + b1 * a3
                c2 = b2 * a0 + b3 * a2
                c3 = b2 * a1 + b3 * a3
                d0 = (c0 * b3 - c1 * b2) * det_b
                d3 = (-c2 * b1 + c3 * b0) * det_b
                assert d0 + d3 == a0 + a3
                d1 = (-c0 * b1 + c1 * b0) * det_b
                d2 = (c2 * b3 - c3 * b2) * det_b
                assert d0 * d3 - d1 * d2 == a0 * a3 - a1 * a2

    def test_power_compatibility(self):
        # conjugate pairs share tr(A^p) for all p <= 97
        primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
        for word in [(1, 2), (2, 1, 1), (3, 1, 2, 1)]:
            a = incidence_matrix(word)
            for k in range(1, len(word)):
                b = incidence_matrix(word[k:] + word[:k])
                assert conjugacy_test(a, b, 3).is_conjugate
                for p in primes:
                    assert mat_pow(a, p).trace() == mat_pow(b, p).trace()

    def test_agrees_with_oracle_on_small_matrices(self):
        # bucket by (trace, det): the only pairs the oracle could connect
        mats = [IntMatrix(2, 2, t) for t in product(range(-2, 3), repeat=4)]
        buckets: dict = {}
        for m in mats:
            buckets.setdefault((m.trace(), m.det()), []).append(m)
        rng = random.Random(7)
        checked = 0
        for key, group in sorted(buckets.items()):
            pairs = [(x, y) for x in group for y in group]
            rng.shuffle(pairs)
            for a, b in pairs[:12]:
                v = conjugacy_test(a, b, 5)
                found = brute_force_conjugator(a, b, 5)
                if v.is_conjugate:
                    assert v.witness * a == b * v.witness
                elif v.status == "not_conjugate":
                    assert found is None, (a, b)
                else:
                    assert found is None  # same bound, same exhaustive search
                checked += 1
        assert checked > 200

    def test_broken_witness_raises_naming_the_matrices(self):
        a, a2 = M([[2, 1], [1, 1]]), M([[1, 1], [1, 2]])
        with pytest.raises(RuntimeError, match=r"witness B = \[\[2, 0\], \[0, 1\]\] has det 2, not \+-1"):
            _verified_conjugate(M([[2, 0], [0, 1]]), a, a2)
        message = r"witness B = \[\[1, 0\], \[0, 1\]\] fails B\*A = A'\*B for A = \[\[2, 1\], \[1, 1\]\], A' = \[\[1, 1\], \[1, 2\]\]"
        with pytest.raises(RuntimeError, match=message):
            _verified_conjugate(identity(2), a, a2)
        assert _verified_conjugate(M([[0, 1], [1, 0]]), a, a2).is_conjugate


class TestUnimodularEnumeration:
    def test_all_unimodular(self):
        ms = list(unimodular_2x2(1))
        assert all(m.det() in (1, -1) for m in ms)
        assert identity(2) in ms
        # count is stable (regression pin for deterministic ordering)
        assert len(ms) == len(set(ms))
