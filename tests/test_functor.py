import json

import pytest

from nclocal.ck_k0 import build_lp
from nclocal.elliptic import WeierstrassModel
from nclocal.functor import (
    footnote2_experiment,
    lemma3_bridge,
    localize,
    theorem1_check,
)
from nclocal.zeta import lemma1_check

E_MINUS_X = WeierstrassModel.over_q(0, 0, 0, -1, 0)
E_PLUS_1 = WeierstrassModel.over_q(0, 0, 0, 0, 1)


class TestLocalize:
    def test_good_p3(self):
        res = localize(E_MINUS_X, 3, 2)
        assert res.reduction.is_good
        assert res.lp == build_lp(0, 3)
        assert [str(g) for g in res.k0_groups] == ["Z/4", "Z/4 x Z/4"]
        assert res.k0_orders == (4, 16)
        assert res.curve_counts == (4, 16)
        assert res.curve_groups[0].invariant_factors == (2, 2)

    def test_good_p7_order_identity(self):
        res = localize(E_PLUS_1, 7, 1)
        assert res.a_p == -4
        assert res.k0_orders[0] == 7 + 1 - res.a_p

    def test_additive_p3(self):
        res = localize(E_PLUS_1, 3, 2)
        assert not res.reduction.is_good and res.alpha == 0
        assert res.k0_orders == (0, 0)
        assert all(str(g) == "Z" for g in res.k0_groups)
        assert res.curve_groups == (None, None)

    def test_orders_equal_counts_always(self):
        for e in (E_MINUS_X, E_PLUS_1):
            for p in (5, 7, 11, 13):
                res = localize(e, p, 4)
                assert res.k0_orders == res.curve_counts

    def test_level_guard(self):
        with pytest.raises(ValueError):
            localize(E_MINUS_X, 5, 7)
        with pytest.raises(ValueError):
            localize(E_MINUS_X, 5, 0)

    def test_non_integral_hint(self):
        from fractions import Fraction

        e = WeierstrassModel.over_q(Fraction(1, 5), 0, 0, -1, 0)
        with pytest.raises(ValueError, match="clearing transform"):
            localize(e, 5, 1)

    def test_exploration_record(self):
        res = localize(E_MINUS_X, 3, 1, period=[2, 1])
        assert res.exploration["trace_ap_matrix"] == 52
        assert res.exploration["matches_a_p"] is False

    def test_zeta_coherence_byte_identical(self):
        # the k0 orders feeding localize and the torus series share one source
        for e, p in [(E_MINUS_X, 5), (E_PLUS_1, 7)]:
            res = localize(e, p, 4)
            (report,) = lemma1_check(e, [p], 4)
            # recover counts from the exp-sum by differentiating the log
            from nclocal.zeta import series_log

            logged = series_log(report.torus_series)
            recovered = [int(logged.coefficients[n] * n) for n in range(1, 5)]
            assert json.dumps(recovered) == json.dumps(list(res.k0_orders))


class TestTheorem1:
    def test_good_prime_20_trials(self):
        report = theorem1_check(E_MINUS_X, 5, 20, seed=42)
        assert report.all_passed and len(report.trials) == 20
        assert report.baseline == "[[-2,5],[-1,0]]"
        assert all(t.closure_isomorphic for t in report.trials)

    def test_additive_prime(self):
        report = theorem1_check(E_PLUS_1, 3, 10, seed=7)
        assert report.all_passed and report.baseline == "alpha=0"

    def test_identity_transform_trivially_passes(self):
        # any seed: the baseline compared against itself via trial transforms;
        # determinism means same seed -> byte-identical transcript
        r1 = theorem1_check(E_MINUS_X, 7, 6, seed=3)
        r2 = theorem1_check(E_MINUS_X, 7, 6, seed=3)
        assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())

    def test_different_seeds_differ(self):
        r1 = theorem1_check(E_MINUS_X, 7, 6, seed=3)
        r2 = theorem1_check(E_MINUS_X, 7, 6, seed=4)
        assert json.dumps(r1.to_json_dict()) != json.dumps(r2.to_json_dict())

    def test_u_coprime_to_p(self):
        report = theorem1_check(E_MINUS_X, 3, 12, seed=0)
        assert all(int(t.u) % 3 != 0 for t in report.trials)
        assert report.all_passed

    def test_well_defined_across_catalog(self):
        # every catalog curve, every p <= 30 (good and bad), 20 seeded
        # transforms: identical L_p at good primes, identical alpha at bad ones
        from nclocal._factor import is_prime
        from nclocal.catalog import load_catalog
        from nclocal.elliptic import invariants, reduce_mod_p

        for entry in load_catalog():
            for p in (q for q in range(2, 31) if is_prime(q)):
                red = reduce_mod_p(entry.model, p)
                report = theorem1_check(entry.model, p, 20, seed=1000 + p)
                assert report.all_passed, (entry.label, p)
                assert report.good == (invariants(red).disc != 0)


class TestLemma3Bridge:
    def test_cyclic_shift_pair(self):
        rep = lemma3_bridge([2, 1], [1, 2], 5)
        assert rep.verdict_status == "conjugate"
        assert rep.trace_power_a == rep.trace_power_b == 724
        assert rep.lp_equal and rep.lp == build_lp(724, 5)
        w = rep.witness
        assert w is not None and w * rep.matrix_a == rep.matrix_b * w

    def test_trace_mismatch_pair(self):
        rep = lemma3_bridge([1], [2], 3)
        assert rep.verdict_status == "not_conjugate"
        assert "trace" in rep.reason
        assert rep.lp is None and rep.traces_equal is None

    def test_identical_periods(self):
        rep = lemma3_bridge([3], [3], 7)
        assert rep.verdict_status == "conjugate"
        assert rep.witness.entries == (1, 0, 0, 1)

    def test_json_round_trip(self):
        rep = lemma3_bridge([2, 1], [1, 2], 5)
        d = rep.to_json_dict()
        assert d["conjugacy"] == "conjugate" and d["lp"] == [[724, 5], [-1, 0]]


class TestFootnote2:
    def test_p3_order_match_group_mismatch(self):
        rows = footnote2_experiment(E_MINUS_X, 3, 2)
        first = rows[0]
        assert first.order_curve == first.order_k0 == 4
        assert first.curve_factors == (2, 2)
        assert first.k0_factors == (1, 4)
        assert not first.isomorphic

    def test_p5_plus1_cyclic_six(self):
        rows = footnote2_experiment(E_PLUS_1, 5, 1)
        assert rows[0].order_curve == 6
        assert rows[0].isomorphic

    def test_order_always_equal_at_n1(self):
        for e in (E_MINUS_X, E_PLUS_1):
            for p in (5, 7, 11, 13, 17):
                rows = footnote2_experiment(e, p, 1)
                assert rows[0].order_curve == rows[0].order_k0

    def test_bad_prime_rejected(self):
        with pytest.raises(ValueError, match="good prime"):
            footnote2_experiment(E_PLUS_1, 3, 1)


class TestLocalizeErrors:
    def test_reduction_errors_carry_the_hint(self):
        with pytest.raises(ValueError, match="^4 is not prime; apply a clearing transform first$"):
            localize(E_MINUS_X, 4, 1)

    def test_classifier_errors_do_not(self):
        node = WeierstrassModel.over_q(0, 1, 0, 0, 0)  # y^2 = x^3 + x^2, singular at every p
        with pytest.raises(ValueError, match="^classification guard exceeded$"):
            localize(node, 10007, 1)

    def test_k0_check_raises(self, monkeypatch):
        import nclocal.functor as functor_mod

        monkeypatch.setattr(functor_mod, "k0_order", lambda eps: 0)
        with pytest.raises(RuntimeError, match="K0 order must equal the point count"):
            localize(E_MINUS_X, 5, 2)

    def test_k0_check_survives_optimize_flag(self):
        import os
        import subprocess
        import sys

        code = (
            "import nclocal.functor as f\n"
            "from nclocal.elliptic import WeierstrassModel\n"
            "f.k0_order = lambda eps: 0\n"
            "f.localize(WeierstrassModel.over_q(0, 0, 0, -1, 0), 5, 2)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 1 and "RuntimeError: K0 order must equal the point count" in proc.stderr
