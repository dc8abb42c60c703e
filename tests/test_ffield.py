import os
import random
import subprocess
import sys

import pytest

from field_oracle import TableField, table_field
from nclocal import ffield
from nclocal.ffield import (
    ExtField,
    FieldElement,
    PrimeField,
    find_irreducible,
    finite_field,
    is_square,
)


class TestFindIrreducible:
    def test_degree_one_is_x(self):
        assert find_irreducible(2, 1) == (0, 1)

    def test_f9_modulus(self):
        assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1

    def test_f25_modulus(self):
        assert find_irreducible(5, 2) == (2, 0, 1)  # x^2 + 2

    def test_guard(self):
        with pytest.raises(ValueError, match="field too large"):
            find_irreducible(2, 30)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            find_irreducible(6, 2)

    def test_found_moduli_have_no_roots(self):
        for p, n in [(2, 3), (3, 3), (7, 2), (5, 3)]:
            f = find_irreducible(p, n)
            for a in range(p):
                value = sum(c * a**i for i, c in enumerate(f)) % p
                assert value != 0


def _monic(p: int, n: int) -> list:
    """Every monic polynomial of degree n over F_p, low degree first."""
    return [tuple(v // p**i % p for i in range(n)) + (1,) for v in range(p**n)]


def _times(f: tuple, g: tuple, p: int) -> tuple:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _moebius(m: int) -> int:
    sign, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if m > 1 else sign


class TestIrreducibilityOracle:
    """_is_irreducible against the sieve: a monic f of degree n is
    reducible iff it is a product of monic factors of degrees i and n - i
    for some 1 <= i <= n/2, and the irreducibles number Gauss's
    (1/n) sum_{d | n} mu(d) p^(n/d)."""

    @pytest.mark.parametrize("p,n", [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)] + [(5, 2), (5, 3)])
    def test_accepts_exactly_the_sieved_irreducibles(self, p, n):
        reducible = {_times(f, g, p) for i in range(1, n // 2 + 1) for f in _monic(p, i) for g in _monic(p, n - i)}
        accepted = {f for f in _monic(p, n) if ffield._is_irreducible(f, p)}
        assert accepted == set(_monic(p, n)) - reducible
        gauss = sum(_moebius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0)
        assert gauss % n == 0 and len(accepted) == gauss // n

    @pytest.mark.parametrize(
        "p,f",
        [
            (2, (1, 0, 1, 0, 1)),  # (x^2+x+1)^2
            (3, (1, 0, 2, 0, 1)),  # (x^2+1)^2
            (2, (1, 1, 1, 1, 1, 1, 1)),  # (x^3+x+1)(x^3+x^2+1)
            (3, (2, 1, 0, 1, 1)),  # (x^2+1)(x^2+x+2)
        ],
    )
    def test_reducibles_without_roots_rejected(self, p, f):
        assert all(sum(c * a**i for i, c in enumerate(f)) % p for a in range(p))
        assert not ffield._is_irreducible(f, p)
        with pytest.raises(ValueError, match="reducible"):
            ExtField(p, len(f) - 1, f)

    @pytest.mark.parametrize("p,f", [(2, (1, 1, 1, 1, 1, 1, 1)), (3, (2, 1, 0, 1, 1))])
    def test_only_the_gcd_step_rejects_distinct_factors_of_degree_dividing_n(self, p, f):
        # f is squarefree and each factor's degree divides n, so f divides
        # x^(p^n) - x and the first step passes it
        n = len(f) - 1
        x = [0, 1] + [0] * (n - 2)
        assert ffield._poly_powmod(x, p**n, f, p) == x
        assert not ffield._is_irreducible(f, p)


class TestFieldArithmetic:
    @pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (5, 2), (2, 4), (7, 3)])
    def test_axioms_spot_check(self, p, n):
        field = finite_field(p, n)
        els = range(field.order)
        rng = random.Random(p * 100 + n)
        for _ in range(300):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if a != 0:
                assert field.mul(a, field.inv(a)) == 1

    @pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (2, 4)])
    def test_frobenius_is_additive_and_multiplicative(self, p, n):
        field = finite_field(p, n)
        els = range(field.order)
        rng = random.Random(42)
        for _ in range(150):
            a, b = rng.choice(els), rng.choice(els)
            assert field.pow(field.add(a, b), p) == field.add(field.pow(a, p), field.pow(b, p))
            assert field.pow(field.mul(a, b), p) == field.mul(field.pow(a, p), field.pow(b, p))

    def test_enumerate_counts(self):
        # the table fields enumerate; F_p and ExtField are range(order)
        assert finite_field(2).order == 2
        f9 = list(table_field(3, 2).elements())
        assert len(f9) == 9 and len(set(f9)) == 9 and finite_field(3, 2).order == 9
        f25 = list(table_field(5, 2).elements())
        assert len(f25) == 25 and len(set(f25)) == 25 and finite_field(5, 2).order == 25

    @pytest.mark.parametrize("modulus", [None, (2, 0, 1)])
    def test_characteristic_tested_once(self, monkeypatch, modulus):
        calls = []
        real = ffield.is_prime
        monkeypatch.setattr(ffield, "is_prime", lambda p: calls.append(p) or real(p))
        ExtField(5, 2, modulus)
        assert calls == [5]

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            ExtField(3, 2, (2, 0, 1))  # x^2 + 2 = (x-1)(x+1) mod 3


class TestIsSquare:
    def test_zero_is_square(self):
        assert is_square(PrimeField(5), 0)

    def test_f5(self):
        f5 = PrimeField(5)
        assert not is_square(f5, 2)
        assert is_square(f5, 4)

    @pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
    def test_square_count_odd_q(self, p, n):
        field = finite_field(p, n)
        count = sum(1 for a in range(field.order) if is_square(field, a))
        assert count == (field.order + 1) // 2

    def test_char2_every_element_is_square(self):
        field = finite_field(2, 3)
        assert all(is_square(field, a) for a in range(field.order))


class TestModulusIndependence:
    def test_f9_counts_match_between_moduli(self):
        # same field up to isomorphism: squares count and additive orders agree
        f9a = ExtField(3, 2, (1, 0, 1))  # x^2 + 1
        f9b = ExtField(3, 2, (2, 1, 1))  # x^2 + x + 2, also irreducible
        for f in (f9a, f9b):
            assert sum(1 for a in range(f.order) if is_square(f, a)) == 5
        # multiplicative group is cyclic of order 8 in both presentations
        def orders(f):
            out = {}
            for a in range(f.order):
                if a == 0:
                    continue
                k, acc = 1, a
                while acc != 1:
                    acc = f.mul(acc, a)
                    k += 1
                out[k] = out.get(k, 0) + 1
            return out

        assert orders(f9a) == orders(f9b)


class TestFieldElement:
    def test_operator_mix(self):
        f = finite_field(7)
        x = FieldElement.of(f, 3)
        assert x + 5 == 1
        assert 2 * x - 1 == 5
        assert (x / FieldElement.of(f, 2)) * 2 == x
        assert x**6 == 1
        assert (-x).val == 4

    def test_cross_field_rejected(self):
        a = FieldElement.of(finite_field(5), 1)
        b = FieldElement.of(finite_field(7), 1)
        with pytest.raises(ValueError):
            _ = a + b


def _check_against_oracle(field, pairs):
    """Every operation of ExtField against the table field of the same
    modulus; a square root may differ from the oracle's in sign."""
    oracle = table_field(field.p, field.n, field.modulus)
    q = field.order
    for a, b in pairs:
        for op in ("add", "sub", "mul"):
            assert getattr(field, op)(a, b) == getattr(oracle, op)(a, b), (op, a, b)
    for a in {a for pair in pairs for a in pair}:
        assert field.neg(a) == oracle.neg(a), a
        for e in (0, 1, 2, 3, field.p, q - 2, q - 1, q, 10**6 + 3, -1, -2, -q - 5):
            if a or e >= 0:
                assert field.pow(a, e) == oracle.pow(a, e), (a, e)
        if a:
            assert field.inv(a) == oracle.inv(a), a
        root, expected = field.sqrt(a), oracle.sqrt(a)
        assert root is None if expected is None else root in (expected, oracle.neg(expected)), a
    for bad in (field.inv, lambda a: field.pow(a, -1)):
        with pytest.raises(ZeroDivisionError):
            bad(0)


class TestTableArithmetic:
    """ExtField's polynomial arithmetic against the log/exp table field
    of field_oracle.py."""

    @pytest.mark.parametrize(
        "p,n,modulus",
        [
            (2, 2, None),
            (2, 3, None),
            (3, 2, (1, 0, 1)),  # x^2 + 1: x has order 4, so g is not x
            (3, 2, (2, 1, 1)),  # x^2 + x + 2: x is primitive
            (5, 2, None),
            (3, 3, None),
            (7, 2, None),
        ],
    )
    def test_exhaustive(self, p, n, modulus):
        field = ExtField(p, n, modulus)
        q = field.order
        _check_against_oracle(field, [(a, b) for a in range(q) for b in range(q)])

    @pytest.mark.parametrize("p,n", [(5, 5), (7, 4), (31, 2)])
    def test_sampled(self, p, n):
        field = finite_field(p, n)
        rng = random.Random(p**n)
        pairs = [(rng.randrange(field.order), rng.randrange(field.order)) for _ in range(2000)]
        _check_against_oracle(field, pairs + [(0, 0), (1, field.order - 1)])

    def test_primitive_element(self):
        # the oracle's generator: the first element in int order whose order is q - 1
        assert table_field(3, 2, (1, 0, 1)).exp[1] == 4  # x + 1
        assert table_field(3, 2, (2, 1, 1)).exp[1] == 3  # x

    def test_elements_order_and_repr(self):
        field = finite_field(3, 2)
        assert list(table_field(3, 2).elements()) == list(range(field.order))
        assert [field.element_repr(v) for v in range(field.order)] == [
            "(0,0)", "(1,0)", "(2,0)", "(0,1)", "(1,1)", "(2,1)", "(0,2)", "(1,2)", "(2,2)"
        ]

    def test_prime_subfield_is_0_to_p_minus_1(self):
        field = finite_field(7, 3)
        assert [field.from_int(k) for k in (0, 6, 7, -1)] == [0, 6, 0, 6]
        for a in range(7):
            for b in range(7):
                assert field.mul(a, b) == a * b % 7
                assert field.add(a, b) == (a + b) % 7

    def test_extensions_capped_at_a_million_elements(self):
        for p, n in [(1009, 2), (101, 3), (2, 20)]:
            with pytest.raises(ValueError, match="field too large"):
                finite_field(p, n)
        assert finite_field(997, 2).order == 994009


class TestIdentityChecks:
    """The identity checks raise, so they hold under python -O."""

    def test_trace_outside_prime_field_is_rejected(self):
        # the table oracle's trace check, on a table with two powers swapped
        field = TableField(2, 3, find_irreducible(2, 3))
        field.exp[1], field.exp[2] = field.exp[2], field.exp[1]
        raised = []
        for a in field.elements():
            try:
                field.absolute_trace(a)
            except RuntimeError as err:
                raised.append(str(err))
        assert raised and all("outside the prime field" in msg for msg in raised)

    def test_find_irreducible_without_a_candidate_names_p_and_n(self, monkeypatch):
        monkeypatch.setattr(ffield, "_is_irreducible", lambda f, p: False)
        with pytest.raises(RuntimeError, match=r"no monic irreducible of degree 3 over F_5"):
            find_irreducible(5, 3)

    def test_checks_survive_optimize_flag(self):
        # a wrong #E over F_{p^n} is caught by the first point drawn
        code = (
            "from nclocal.elliptic import WeierstrassModel, group_structure, reduce_mod_p\n"
            "red = reduce_mod_p(WeierstrassModel.over_q(0, 0, 0, -1, 0), 7)\n"
            "group_structure(red, 2, 63)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 1 and "RuntimeError" in proc.stderr and "63 is not #E(F_7^2)" in proc.stderr


class TestAgainstSympy:
    """PrimeField.sqrt and is_square on F_p against sympy, where installed.
    The primes cover p = 3 mod 4 (one pow), p = 5 mod 8 and long 2-power
    parts of p - 1 (Tonelli-Shanks)."""

    PRIMES = (3, 5, 7, 13, 17, 29, 97, 103, 193, 257, 7681, 12289, 65537, 998244353, 999999999959, 999999999989)

    @staticmethod
    def residues(p):
        if p < 300:
            return range(p)
        rng = random.Random(p)
        return [rng.randrange(p) for _ in range(150)] + [rng.randrange(p) ** 2 % p for _ in range(150)]

    @pytest.mark.parametrize("p", PRIMES)
    def test_sqrt_against_sqrt_mod(self, p):
        sqrt_mod = pytest.importorskip("sympy.ntheory").sqrt_mod
        field = PrimeField(p)
        for a in self.residues(p):
            root, expected = field.sqrt(a), sqrt_mod(a, p)
            if expected is None:
                assert root is None, (p, a)
            else:
                assert root in (expected, -expected % p), (p, a)

    @pytest.mark.parametrize("p", PRIMES)
    def test_is_square_against_legendre_symbol(self, p):
        legendre_symbol = pytest.importorskip("sympy.functions.combinatorial.numbers").legendre_symbol
        field = PrimeField(p)
        for a in self.residues(p):
            assert is_square(field, a) == (legendre_symbol(a, p) != -1), (p, a)



class TestSqrt:
    @pytest.mark.parametrize("p", [2, 3, 5, 13, 17, 97, 193, 257])
    def test_prime_field_against_every_root(self, p):
        field = PrimeField(p)
        roots = {a: {r for r in range(p) if r * r % p == a} for a in range(p)}
        for a in range(p):
            root = field.sqrt(a)
            assert root is None if not roots[a] else root in roots[a], (p, a)
            assert field.sqrt(a - p) == root

    @pytest.mark.parametrize("p", [998244353, 999999999989])
    def test_large_prime_fields_by_euler(self, p):
        # 2^23 exactly divides 998244353 - 1; 999999999989 - 1 has 2^2
        field = PrimeField(p)
        rng = random.Random(p)
        for a in [rng.randrange(1, p) for _ in range(100)] + [rng.randrange(1, p) ** 2 % p for _ in range(100)]:
            root = field.sqrt(a)
            if pow(a, (p - 1) // 2, p) == 1:
                assert root is not None and root * root % p == a, a
            else:
                assert root is None, a

    @pytest.mark.parametrize("field", [PrimeField(998244353), PrimeField(257), finite_field(5, 2), finite_field(3, 4)])
    def test_generator_found_on_first_use_and_reused(self, field):
        # no generator is sought before Tonelli-Shanks first needs one
        assert field._sylow2 is None
        squares = [field.mul(v, v) for v in (3, 5, 7, 11, 13)]
        root = field.sqrt(squares[0])
        generator = field._sylow2
        assert generator is not None and field.mul(root, root) == squares[0]
        for a in squares[1:]:
            root = field.sqrt(a)
            assert field.mul(root, root) == a and field._sylow2 == generator

    def test_characteristic_2(self):
        assert [PrimeField(2).sqrt(a) for a in (0, 1)] == [0, 1]
        field = finite_field(2, 5)
        assert all(field.mul(field.sqrt(a), field.sqrt(a)) == a for a in range(field.order))

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
    def test_odd_extensions(self, p, n):
        field = finite_field(p, n)
        for a in range(field.order):
            root = field.sqrt(a)
            assert (root is None) == (not is_square(field, a))
            assert root is None or field.mul(root, root) == a
