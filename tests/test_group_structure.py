"""group_structure draws a few points; the oracles in group_oracle.py list
every point of E(F_q)."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from field_oracle import at_level, model_over_ext, table_field
from group_oracle import affine_points, group_by_orders, group_by_scan
from nclocal._factor import is_prime
from nclocal.catalog import load_catalog
from nclocal.cli import main
from nclocal.elliptic import (
    AdmissibleTransform,
    WeierstrassModel,
    classify_reduction,
    group_structure,
    invariants,
    local_data,
    reduce_mod_p,
    transform,
)
from nclocal.elliptic import _points, _raw_consts
from nclocal.ffield import PrimeField, finite_field
from nclocal.functor import localize

E_MINUS_X = WeierstrassModel.over_q(0, 0, 0, -1, 0)  # y^2 = x^3 - x
CATALOG = {entry.label: entry.model for entry in load_catalog()}


def good_reductions(model, p):
    red = reduce_mod_p(model, p)
    return red if classify_reduction(red).is_good else None


def factors(e, n=1):
    return group_structure(e, n).invariant_factors


class TestAgainstEnumeration:
    @pytest.mark.parametrize("label", sorted(CATALOG))
    def test_prime_fields_to_229(self, label):
        for p in filter(is_prime, range(2, 230)):
            red = good_reductions(CATALOG[label], p)
            if red is not None:
                assert factors(red) == group_by_scan(red), (label, p)

    @pytest.mark.parametrize("label", sorted(CATALOG))
    def test_extension_fields_to_10_4(self, label):
        levels = [(p, n) for p in filter(is_prime, range(2, 101)) for n in range(2, 14) if p**n <= 10**4]
        for p, n in levels:
            red = good_reductions(CATALOG[label], p)
            if red is not None:
                assert factors(red, n) == group_by_orders(red, n), (label, p, n)

    def test_the_two_oracles_agree(self):
        for label in ("cm-4", "cm-7", "cm-11", "cm-19"):
            for p, n in ((2, 5), (3, 4), (5, 3), (7, 2), (13, 2), (101, 1), (227, 1)):
                red = good_reductions(CATALOG[label], p)
                if red is not None:
                    assert group_by_scan(red, n) == group_by_orders(red, n), (label, p, n)


class TestNonCyclic:
    """y^2 = x^3 - x at p = 3 mod 4 is supersingular with full rational
    2-torsion: E(F_p) = Z/2 x Z/((p+1)/2), and pi^2 = -p makes
    E(F_{p^2}) = E[p+1] = Z/(p+1) x Z/(p+1)."""

    def test_prime_fields(self):
        for p in filter(is_prime, range(3, 3000, 4)):
            assert factors(reduce_mod_p(E_MINUS_X, p)) == (2, (p + 1) // 2), p
        for p in (99991, 999999999959):
            assert p % 4 == 3 and is_prime(p)
            assert factors(reduce_mod_p(E_MINUS_X, p)) == (2, (p + 1) // 2), p

    def test_squares_of_primes(self):
        for p in filter(is_prime, range(3, 100, 4)):
            red = reduce_mod_p(E_MINUS_X, p)
            assert factors(red, 2) == group_by_orders(red, 2) == (p + 1, p + 1), p
        for p in (331, 991):
            assert factors(reduce_mod_p(E_MINUS_X, p), 2) == (p + 1, p + 1), p


def small_characteristic_models():
    rng = random.Random(6)
    coefficients = [(1, 0, 1, 0, 1), (0, 0, 1, 0, 0), (1, 0, 0, 0, 1), (1, 1, 0, 0, 1), (0, 1, 0, 1, 1)]
    coefficients += [tuple(rng.randint(-4, 4) for _ in range(5)) for _ in range(20)]
    return [WeierstrassModel.over_q(*c) for c in coefficients]


class TestSmallCharacteristic:
    @pytest.mark.parametrize("p, n_top", [(2, 12), (3, 7)])
    def test_against_enumeration(self, p, n_top):
        seen = 0
        for model in small_characteristic_models():
            red = good_reductions(model, p)
            if red is None:
                continue
            seen += 1
            for n in range(1, n_top + 1):
                assert factors(red, n) == group_by_orders(red, n), (model, p, n)
        assert seen >= 5


class TestAgainstTableFields:
    """group_structure on ExtField against the same call with the table
    field of field_oracle.py in its place: the draws take the same x in
    the same order, and a root may differ only in sign."""

    @staticmethod
    def on_table_fields(monkeypatch, red, n):
        import nclocal.elliptic as elliptic_mod

        with monkeypatch.context() as patch:
            patch.setattr(elliptic_mod, "finite_field", table_field)
            return factors(red, n)

    @pytest.mark.parametrize("label", sorted(CATALOG)[::3])
    def test_catalog_sample(self, monkeypatch, label):
        levels = [(p, n) for p in (2, 3, 5, 7, 11, 13, 31, 97) for n in range(2, 7) if p**n <= 3 * 10**4]
        for p, n in levels:
            red = good_reductions(CATALOG[label], p)
            if red is not None:
                assert factors(red, n) == self.on_table_fields(monkeypatch, red, n), (label, p, n)

    def test_curves_without_cm(self, monkeypatch):
        for model in (WeierstrassModel.over_q(0, 0, 0, 1, 1), WeierstrassModel.over_q(0, 0, 1, -1, 0)):
            for p, n in ((5, 3), (7, 2), (37, 2), (101, 2), (2, 8), (3, 6)):
                red = good_reductions(model, p)
                if red is not None:
                    assert factors(red, n) == self.on_table_fields(monkeypatch, red, n), (model, p, n)


class TestPointSource:
    @pytest.mark.parametrize("p, n", [(7, 1), (13, 1), (17, 1), (2, 1), (2, 6), (3, 5), (5, 3), (7, 2)])
    def test_one_point_per_x_with_a_root(self, p, n):
        for model in small_characteristic_models() + list(CATALOG.values())[:4]:
            red = good_reductions(model, p)
            if red is None:
                continue
            curve = model_over_ext(red, finite_field(p, n)) if n > 1 else red
            f = curve.field
            a1, a2, a3, a4, a6 = consts = _raw_consts(curve)
            drawn = list(_points(f, consts))
            assert {x for x, _ in drawn} == {x for x, _ in affine_points(at_level(red, n))}
            assert len(drawn) == len({x for x, _ in drawn})
            for x, y in drawn:
                lhs = f.add(f.mul(y, y), f.mul(f.add(f.mul(a1, x), a3), y))
                rhs = f.add(f.mul(f.add(f.mul(f.add(x, a2), x), a4), x), a6)
                assert lhs == rhs
            # over F_{p^n}, n > 1, the draw starts outside the prime field
            if n > 1 and drawn:
                assert drawn[0][0] >= p


class TestIsomorphicModels:
    @settings(max_examples=40)
    @given(
        st.sampled_from(sorted(CATALOG)),
        st.sampled_from((1, -1, 2, -3, 6)),
        st.tuples(*(st.integers(-20, 20) for _ in range(3))),
        st.sampled_from([p for p in range(5, 400) if is_prime(p)] + [10007, 99991, 999983]),
        st.sampled_from((1, 2)),
    )
    def test_same_invariant_factors(self, label, u, rst, p, n):
        assume(u % p != 0 and (n == 1 or p**n <= 10**6))
        base = good_reductions(CATALOG[label], p)
        assume(base is not None)
        other = reduce_mod_p(transform(CATALOG[label], AdmissibleTransform.over_q(u, *rst)), p)
        assert invariants(other).disc != 0
        assert factors(other, n) == factors(base, n)


class TestChecks:
    def test_wrong_order_raises(self):
        red = reduce_mod_p(E_MINUS_X, 103)
        with pytest.raises(RuntimeError, match="103 is not #E"):
            group_structure(red, 1, 103)

    def test_singular_rejected(self):
        node = WeierstrassModel.over_field(PrimeField(11), 0, 1, 0, 0, 0)
        with pytest.raises(ValueError, match="singular"):
            group_structure(node)

    def test_trivial_group(self):
        # y^2 + y = x^3 + x + 1 over F_2 has no affine point
        e = WeierstrassModel.over_field(PrimeField(2), 0, 0, 1, 1, 1)
        assert group_by_scan(e) == (1, 1)
        assert factors(e) == (1, 1)


class TestLevels:
    def test_groups_past_the_field_guard_are_none(self):
        # 103^3 is past EXT_FIELD_GUARD
        groups = local_data(E_MINUS_X, 103).groups(3)
        assert [g.invariant_factors for g in groups[:2]] == [(2, 52), (104, 104)]
        assert groups[2] is None

    def test_bad_prime_has_no_groups(self):
        assert localize(E_MINUS_X, 2, 3).curve_groups == (None, None, None)

    def test_localize_prints_groups_past_10_4(self):
        res = localize(E_MINUS_X, 103, 2)
        assert [g.invariant_factors for g in res.curve_groups] == [(2, 52), (104, 104)]

    def test_curve_at_the_a_p_guard(self, capsys):
        import json

        assert main(["curve", "--model", "[0,0,0,-1,0]", "--p", "999999999959"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"] == [10**12 - 40] and data["groups"] == [[2, (10**12 - 40) // 2]]
