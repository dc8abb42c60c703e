import os
import random
import subprocess
import sys
from array import array

import pytest

from nclocal.ffield import (
    ExtField,
    FieldElement,
    PrimeField,
    _log_table,
    _poly_divmod,
    _poly_mulmod,
    enumerate_field,
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


class TestFieldArithmetic:
    @pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (5, 2), (2, 4), (7, 3)])
    def test_axioms_spot_check(self, p, n):
        field = finite_field(p, n)
        els = list(field.elements())
        rng = random.Random(p * 100 + n)
        for _ in range(300):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if a != field.zero():
                assert field.mul(a, field.inv(a)) == field.one()

    @pytest.mark.parametrize("p,n", [(5, 1), (3, 2), (2, 4)])
    def test_frobenius_is_additive_and_multiplicative(self, p, n):
        field = finite_field(p, n)
        els = list(field.elements())
        rng = random.Random(42)
        for _ in range(150):
            a, b = rng.choice(els), rng.choice(els)
            assert field.pow(field.add(a, b), p) == field.add(field.pow(a, p), field.pow(b, p))
            assert field.pow(field.mul(a, b), p) == field.mul(field.pow(a, p), field.pow(b, p))

    def test_enumerate_counts(self):
        assert list(enumerate_field(finite_field(2))) == [0, 1]
        f9 = list(enumerate_field(finite_field(3, 2)))
        assert len(f9) == 9 and len(set(f9)) == 9
        f25 = list(enumerate_field(finite_field(5, 2)))
        assert len(f25) == 25 and len(set(f25)) == 25

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
        count = sum(1 for a in field.elements() if is_square(field, a))
        assert count == (field.order + 1) // 2

    def test_char2_every_element_is_square(self):
        field = finite_field(2, 3)
        assert all(is_square(field, a) for a in field.elements())


class TestModulusIndependence:
    def test_f9_counts_match_between_moduli(self):
        # same field up to isomorphism: squares count and additive orders agree
        f9a = ExtField(3, 2, (1, 0, 1))  # x^2 + 1
        f9b = ExtField(3, 2, (2, 1, 1))  # x^2 + x + 2, also irreducible
        for f in (f9a, f9b):
            assert sum(1 for a in f.elements() if is_square(f, a)) == 5
        # multiplicative group is cyclic of order 8 in both presentations
        def orders(f):
            out = {}
            for a in f.elements():
                if a == f.zero():
                    continue
                k, acc = 1, a
                while acc != f.one():
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


def _decode(field, v):
    return tuple((v // field.p**i) % field.p for i in range(field.n))


def _encode(field, digits):
    return sum(c * field.p**i for i, c in enumerate(digits))


def _check_against_polynomials(field, pairs):
    """Table arithmetic against tuple-polynomial arithmetic mod the modulus."""
    p, mod = field.p, field.modulus
    for a, b in pairs:
        da, db = _decode(field, a), _decode(field, b)
        assert field.mul(a, b) == _encode(field, _poly_mulmod(da, db, mod, p)), (a, b)
        assert field.add(a, b) == _encode(field, [(x + y) % p for x, y in zip(da, db)]), (a, b)
        assert field.sub(a, b) == _encode(field, [(x - y) % p for x, y in zip(da, db)]), (a, b)
    for a in {a for pair in pairs for a in pair}:
        da = _decode(field, a)
        assert field.neg(a) == _encode(field, [-x % p for x in da])
        assert field.pow(a, 3) == _encode(field, _poly_mulmod(_poly_mulmod(da, da, mod, p), da, mod, p))
        if a:
            inv = _decode(field, field.inv(a))
            assert _poly_divmod(_poly_mulmod(da, inv, mod, p), mod, p)[1] == (1,)


class TestTableArithmetic:
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
        _check_against_polynomials(field, [(a, b) for a in range(q) for b in range(q)])

    @pytest.mark.parametrize("p,n", [(5, 5), (7, 4), (31, 2)])
    def test_sampled(self, p, n):
        field = finite_field(p, n)
        rng = random.Random(p**n)
        pairs = [(rng.randrange(field.order), rng.randrange(field.order)) for _ in range(2000)]
        _check_against_polynomials(field, pairs + [(0, 0), (1, field.order - 1)])

    def test_primitive_element(self):
        # the first element in int order whose order is q - 1
        assert ExtField(3, 2, (1, 0, 1))._exp[1] == 4  # x + 1
        assert ExtField(3, 2, (2, 1, 1))._exp[1] == 3  # x

    def test_elements_order_and_repr(self):
        field = finite_field(3, 2)
        assert list(field.elements()) == list(range(9))
        assert [field.element_repr(v) for v in field.elements()] == [
            "(0,0)", "(1,0)", "(2,0)", "(0,1)", "(1,1)", "(2,1)", "(0,2)", "(1,2)", "(2,2)"
        ]

    def test_prime_subfield_is_0_to_p_minus_1(self):
        field = finite_field(7, 3)
        assert [field.from_int(k) for k in (0, 6, 7, -1)] == [0, 6, 0, 6]
        for a in range(7):
            for b in range(7):
                assert field.mul(a, b) == a * b % 7
                assert field.add(a, b) == (a + b) % 7

    def test_tables_built_once_per_field(self):
        first, second = finite_field(5, 3), finite_field(5, 3)
        assert first._exp is second._exp and first._zech is second._zech
        other = ExtField(3, 2, (2, 1, 1))
        assert other._exp is not ExtField(3, 2, (1, 0, 1))._exp

    def test_extensions_capped_at_a_million_elements(self):
        for p, n in [(1009, 2), (101, 3), (2, 20)]:
            with pytest.raises(ValueError, match="field too large"):
                finite_field(p, n)
        assert finite_field(997, 2).order == 994009


class TestIdentityChecks:
    """The table self-checks raise, so they hold under python -O."""

    def test_exp_table_with_a_repeat_is_rejected(self):
        exp = array("i", finite_field(5, 2)._exp)
        exp[7] = exp[8]
        with pytest.raises(RuntimeError, match="not a bijection"):
            _log_table(25, exp)

    def test_exp_table_past_the_field_is_rejected(self):
        exp = array("i", finite_field(5, 2)._exp)
        exp[3] = 25
        with pytest.raises(RuntimeError, match="past 24"):
            _log_table(25, exp)

    def test_trace_outside_prime_field_is_rejected(self):
        field = ExtField(2, 3)
        field._exp = array("i", field._exp)
        field._exp[1], field._exp[2] = field._exp[2], field._exp[1]
        raised = []
        for a in field.elements():
            try:
                field.absolute_trace(a)
            except RuntimeError as err:
                raised.append(str(err))
        assert raised and all("outside the prime field" in msg for msg in raised)

    def test_checks_survive_optimize_flag(self):
        code = (
            "from array import array\n"
            "from nclocal.ffield import _log_table\n"
            "_log_table(5, array('i', [1, 2, 2, 3]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 1 and "RuntimeError" in proc.stderr and "not a bijection" in proc.stderr
