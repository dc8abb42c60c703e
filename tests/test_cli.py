import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import permutations
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclocal import cli
from nclocal._limits import JOIN_BLOCK
from nclocal.cli import _cmd_cf, _render_json, main

import test_reach
from intmat_oracle import ck_family

# compare_outputs turns bytecode writing off, for the bench/ modules it
# imports; the rest of the test run writes bytecode as before
_dont_write = sys.dont_write_bytecode
import compare_outputs  # noqa: E402

sys.dont_write_bytecode = _dont_write


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCf:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "cf", "(1+sqrt(5))/2")
        assert code == 0
        data = json.loads(out)
        assert data["period"] == [1] and data["preperiod"] == []
        assert data["display"] == "[(1)]" and data["reduced"]

    def test_sqrt2_display(self, capsys):
        code, out, _ = run(capsys, "cf", "sqrt(2)")
        data = json.loads(out)
        assert data["display"] == "[1; (2)]"

    def test_bad_input_exit_2(self, capsys):
        code, _, err = run(capsys, "cf", "sqrt(four)")
        assert code == 2 and "error" in err

    def test_rational_input_exit_2(self, capsys):
        code, _, err = run(capsys, "cf", "sqrt(9)")
        assert code == 2 and "perfect square" in err

    def test_d_at_its_digit_guard(self, capsys):
        # D = (4 10^10)^2 + 1 has 22 digits and period (2 sqrt(D - 1))
        code, out, _ = run(capsys, "cf", "(1+sqrt(1600000000000000000001))/1")
        assert code == 0 and json.loads(out)["period"] == [80000000000]

    @pytest.mark.parametrize("d", ["16000000000000000000001", "1" + "0" * 400 + "1"])
    def test_d_past_its_digit_guard_exit_2(self, capsys, d):
        # refused before D is factored
        code, out, err = run(capsys, "cf", f"(1+sqrt({d}))/1")
        assert code == 2 and out == ""
        assert err == "error: guard exceeded: D has more than 22 digits\n"

    def test_peak_memory_per_period_digit(self):
        # tracemalloc's peak over a whole run is about 26 bytes a digit: the
        # list of the period's ints, its text in the display and the JSON
        # text of the list, 8 + 3 + 7 bytes, and the output written in
        # slices; one more copy of the period, as a sequence of 8-byte
        # pointers or as text, passes the bound
        args = ["cf", "sqrt(1000000123)"]  # 24,638 digits
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(args)  # imports and caches outside the measurement
            tracemalloc.start()
            try:
                assert main(args) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak / 24638 < 28


class TestMatrix:
    def test_period_and_power(self, capsys):
        code, out, _ = run(capsys, "matrix", "--period", "2,1", "--pow", "5")
        data = json.loads(out)
        assert code == 0
        assert data["matrix"] == [[3, 2], [1, 1]]
        assert data["trace_pow"] == 724

    def test_empty_period_exit_2(self, capsys):
        code, _, err = run(capsys, "matrix", "--period", "")
        assert code == 2


class TestK0:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "k0", "--matrix", "[[0,3],[-1,0]]")
        data = json.loads(out)
        assert code == 0
        assert data["invariant_factors"] == [1, 4]
        assert data["group"] == "Z/4" and data["order"] == 4

    def test_bad_matrix_exit_2(self, capsys):
        code, _, _ = run(capsys, "k0", "--matrix", "[[1,2],[3]]")
        assert code == 2

    @pytest.mark.parametrize("matrix", ["[[0.9,3],[-1,true]]", '[[0,3],[-1,"0"]]', "[[0,3],[-1,1.0]]"])
    def test_non_integer_entries_exit_2(self, capsys, matrix):
        code, out, err = run(capsys, "k0", "--matrix", matrix)
        assert code == 2 and out == "" and "entries must be integers" in err


class TestCurve:
    def test_invariants_and_counts(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", "[0,0,0,-1,0]", "--p", "5", "--n", "2")
        data = json.loads(out)
        assert code == 0
        assert data["disc"] == "64" and data["j"] == "1728"
        assert data["reduction"] == "good" and data["a_p"] == -2
        assert data["counts"] == [8, 32]
        assert data["groups"][0] == [2, 4]

    def test_bad_prime_output(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", "[0,0,0,0,1]", "--p", "3")
        data = json.loads(out)
        assert code == 0
        assert data["reduction"] == "additive" and data["alpha"] == 0

    def test_rational_model(self, capsys):
        code, out, _ = run(capsys, "curve", "--model", '["1/2",0,0,"-3/4",1]')
        assert code == 0
        assert json.loads(out)["b2"] == "1/4"

    def test_non_integral_exit_2(self, capsys):
        code, _, err = run(capsys, "curve", "--model", '["1/5",0,0,1,1]', "--p", "5")
        assert code == 2 and "p-integral" in err

    def test_composite_p_has_one_message(self, capsys):
        # localize hints at a clearing transform for a non-integral model only
        for command in ("curve", "localize", "theorem1"):
            code, out, err = run(capsys, command, "--model", "[0,0,0,-1,0]", "--p", "4")
            assert code == 2 and out == "" and err == "error: 4 is not prime\n", command
        code, out, err = run(capsys, "localize", "--model", '["1/5",0,0,1,1]', "--p", "5")
        assert code == 2 and out == ""
        assert err == "error: model not p-integral at p=5 (coefficient 1/5); apply a clearing transform first\n"

    def test_n_zero_exit_2(self, capsys):
        code, out, err = run(capsys, "curve", "--model", "[0,0,0,-1,0]", "--p", "5", "--n", "0")
        assert code == 2 and out == "" and "--n must be between 1 and 6" in err

    def test_n_past_max_level_exit_2(self, capsys):
        # rejected before any level is counted, so no 4300-digit p^n is printed
        code, out, err = run(capsys, "curve", "--model", "[0,0,0,-1,0]", "--p", "2", "--n", "20000")
        assert code == 2 and out == "" and "--n must be between 1 and 6" in err


class TestLocalize:
    def test_good(self, capsys):
        code, out, _ = run(capsys, "localize", "--model", "[0,0,0,-1,0]", "--p", "3", "--nmax", "2")
        data = json.loads(out)
        assert code == 0
        assert data["lp"] == [[0, 3], [-1, 0]]
        assert data["k0_orders"] == [4, 16]
        assert data["k0_invariant_factors"] == [[1, 4], [4, 4]]

    def test_exploration_period(self, capsys):
        code, out, _ = run(
            capsys, "localize", "--model", "[0,0,0,-1,0]", "--p", "3", "--nmax", "1", "--period", "2,1"
        )
        data = json.loads(out)
        assert data["exploration"]["matches_a_p"] is False


class TestZeta:
    def test_good_range_matches(self, capsys):
        code, out, _ = run(
            capsys, "zeta", "--model", "[0,0,0,-1,0]", "--primes", "3..13", "--order", "4"
        )
        data = json.loads(out)
        assert code == 0
        assert all(r["verdict"] == "match" for r in data if r["good"])

    def test_bad_prime_informational_mismatch_keeps_exit_0(self, capsys):
        code, out, _ = run(capsys, "zeta", "--model", "[0,0,0,-1,0]", "--primes", "2..7", "--order", "3")
        data = json.loads(out)
        assert code == 0
        p2 = next(r for r in data if r["p"] == 2)
        assert p2["verdict"] == "mismatch" and not p2["good"]

    def test_exploration_mismatch_exit_1(self, capsys):
        code, out, _ = run(
            capsys,
            "zeta", "--model", "[0,0,0,-1,0]", "--primes", "3,5", "--order", "3", "--period", "2,1",
        )
        assert code == 1

    def test_prime_list_validation(self, capsys):
        code, _, err = run(capsys, "zeta", "--model", "[0,0,0,-1,0]", "--primes", "4,6")
        assert code == 2

    def test_prime_range_guards(self, capsys, monkeypatch):
        import nclocal._factor

        # the modules that bind is_prime at import load first, so that they
        # keep the real one once the stub is undone
        import nclocal.ck_k0
        import nclocal.ffield  # noqa: F401

        def no_primality_tests(n):
            raise AssertionError("a guard must reject the range before any primality test")

        monkeypatch.setattr(nclocal._factor, "is_prime", no_primality_tests)
        for primes in ("2..10002", "2..1000000000000", "1000000000000..1000000000100", "1000000000039"):
            code, out, err = run(capsys, "zeta", "--model", "[0,0,0,-1,0]", "--primes", primes)
            assert code == 2 and out == "" and "guard exceeded" in err, primes

    def test_range_at_the_span_guard(self, capsys):
        code, out, _ = run(capsys, "zeta", "--model", "[0,0,0,-1,0]", "--primes", "2..10001", "--order", "2")
        assert code == 0 and len(json.loads(out)) == 1229

    def test_large_prime_fast(self, capsys):
        # p = 3 mod 4: y^2 = x^3 - x is supersingular, a_p = 0
        code, out, _ = run(capsys, "zeta", "--model", "[0,0,0,-1,0]", "--primes", "9999991", "--order", "2")
        (report,) = json.loads(out)
        assert code == 0 and report["good"] and report["verdict"] == "match"
        # (1 + p z^2) / ((1 - z)(1 - p z)) = 1 + (p + 1) z + (p + 1)^2 z^2 + ...
        assert report["curve_coeffs"] == ["1", "9999992", str(9999992**2)]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "zeta", "--model", "[0,0,0,-1,0]", "--primes", "3,5", "--order", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,good,curve_coeffs")
        assert len(lines) == 3


class TestTheorem1:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run(
            capsys, "theorem1", "--model", "[0,0,0,-1,0]", "--p", "5", "--trials", "5", "--seed", "1"
        )
        data = json.loads(out)
        assert code == 0 and data["all_passed"]

    def test_transcript_deterministic(self, capsys):
        _, out1, _ = run(capsys, "theorem1", "--model", "[0,0,0,0,1]", "--p", "7", "--trials", "4", "--seed", "9")
        _, out2, _ = run(capsys, "theorem1", "--model", "[0,0,0,0,1]", "--p", "7", "--trials", "4", "--seed", "9")
        assert out1 == out2


class TestCatalog:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "catalog")
        data = json.loads(out)
        assert code == 0 and len(data) == 13
        labels = {e["label"] for e in data}
        assert {"cm-3", "cm-4", "cm-163"} <= labels

    def test_tampered_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([
            {"label": "x", "coefficients": [1, 1, 1, 1, 1], "cm_discriminant": -4, "notes": ""}
        ]))
        code, _, err = run(capsys, "catalog", "--file", str(path))
        assert code == 2 and "recomputed j" in err

    @pytest.mark.parametrize("coefficients", [[0, 0, 0, -1], 5, "00010", [0, 0, 0, -1, 0, 0]])
    def test_malformed_coefficients_exit_2(self, capsys, tmp_path, coefficients):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"label": "x", "coefficients": coefficients, "cm_discriminant": -4}]))
        code, out, err = run(capsys, "catalog", "--file", str(path))
        assert code == 2 and out == "" and "malformed catalog record" in err

    @pytest.mark.parametrize("disc", [-4.9, True, "-4", -4.0, None])
    def test_non_integer_discriminant_exit_2(self, capsys, tmp_path, disc):
        # int() would read -4.9 as -4 and true as 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"label": "x", "coefficients": [0, 0, 0, -1, 0], "cm_discriminant": disc}]))
        code, out, err = run(capsys, "catalog", "--file", str(path))
        assert code == 2 and out == "" and "cm_discriminant must be an integer" in err

    def test_integer_discriminant_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps([{"label": "x", "coefficients": [0, 0, 0, -1, 0], "cm_discriminant": -4}]))
        code, out, _ = run(capsys, "catalog", "--file", str(path))
        assert code == 0 and json.loads(out)[0]["cm_discriminant"] == -4

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "label,coefficients,cm_discriminant,j,notes"


class TestGuards:
    """--order and --trials are checked before any work: exit 2, empty stdout."""

    def test_zeta_order_outside_1_to_12(self, capsys):
        for order in ("0", "13", "-1"):
            code, out, err = run(capsys, "zeta", "--model", "[0,0,0,-1,0]", "--primes", "2..20", "--order", order)
            assert code == 2 and out == "" and "--order must be between 1 and 12" in err, order

    def test_zeta_order_edges_accepted(self, capsys):
        for order in ("1", "12"):
            code, out, _ = run(capsys, "zeta", "--model", "[0,0,0,-1,0]", "--primes", "3", "--order", order)
            (report,) = json.loads(out)
            assert code == 0 and len(report["curve_coeffs"]) == int(order) + 1

    def test_theorem1_trials_outside_1_to_100(self, capsys):
        for trials in ("0", "101", "-1"):
            code, out, err = run(capsys, "theorem1", "--model", "[0,0,0,-1,0]", "--p", "5", "--trials", trials)
            assert code == 2 and out == "" and "--trials must be between 1 and 100" in err, trials

    def test_guards_checked_before_the_model_is_read(self, capsys):
        code, out, err = run(capsys, "zeta", "--model", "[bad", "--primes", "2..20", "--order", "13")
        assert code == 2 and out == "" and "--order" in err
        code, out, err = run(capsys, "theorem1", "--model", "[bad", "--p", "5", "--trials", "101")
        assert code == 2 and out == "" and "--trials" in err

    def test_p_past_the_a_p_guard(self, capsys):
        # y^2 = x^3 + x^2 is singular at every p, so no a_p would stop it
        for command in ("curve", "localize", "theorem1"):
            for model in ("[0,1,0,0,0]", "[bad"):
                code, out, err = run(capsys, command, "--model", model, "--p", "1000000000039")
                assert code == 2 and out == "" and err == "error: guard exceeded: p > 10^12\n", (command, model)

    def test_cf_state_cap(self, capsys):
        code, out, err = run(capsys, "cf", "(1+sqrt(1234567890123457))/2")
        assert code == 2 and out == ""
        assert err == "error: guard exceeded: continued fraction has more than 10^6 states\n"

    def test_cf_float_range(self, capsys):
        # P = the largest finite float prints; 2^1024 and 10^400 cannot
        edge = int(sys.float_info.max)
        code, out, _ = run(capsys, "cf", f"({edge}+sqrt(2))/1")
        assert code == 0 and json.loads(out)["value_approx"] == sys.float_info.max
        for past in (2**1024, 10**400, -(10**400)):
            code, out, err = run(capsys, "cf", f"({past}+sqrt(2))/1")
            assert code == 2 and out == ""
            assert err == "error: guard exceeded: value_approx passes the float range\n"

    def test_k0_size_guard(self, capsys):
        code, out, _ = run(capsys, "k0", "--matrix", json.dumps(ck_family(120, 120)))
        assert code == 0 and len(json.loads(out)["invariant_factors"]) == 120
        code, out, err = run(capsys, "k0", "--matrix", json.dumps(ck_family(121, 121)))
        assert code == 2 and out == ""
        assert err == "error: guard exceeded: k0 matrix is 121 x 121, past 120 x 120\n"

    def test_k0_digit_guard(self, capsys):
        # for a 1 x 1 matrix (a), |det(I - A^t)| = |1 - a| is its own Hadamard bound
        code, out, _ = run(capsys, "k0", "--matrix", f"[[{2 - 10**400}]]")
        assert code == 0 and json.loads(out)["order"] == 10**400 - 1
        message = "error: guard exceeded: the Hadamard bound on |det(I - A^t)| passes 400 digits\n"
        for text in (f"[[{1 - 10**400}]]", json.dumps([[(i * j) % 2001 - 1000 for j in range(120)] for i in range(120)])):
            code, out, err = run(capsys, "k0", "--matrix", text)
            assert code == 2 and out == "" and err == message

    def test_matrix_pow_digit_guard(self, capsys):
        # (1,1;1,0)^k holds Fibonacci numbers; F_20571 has 4299 digits
        code, out, _ = run(capsys, "matrix", "--period", "1", "--pow", "20570")
        assert code == 0 and len(str(json.loads(out)["matrix_pow"][0][0])) == 4299
        for period, k in (("1", "20571"), ("3,1,4,1,5", "2100"), ("1," * 21000 + "1", "1")):
            code, out, err = run(capsys, "matrix", "--period", period, "--pow", k)
            assert code == 2 and out == ""
            assert err == f"error: guard exceeded: entries of the power {k} may pass 4300 digits\n"

    def test_exploration_trace_guard_refuses_before_any_work(self, capsys):
        # tr(A^p) of the period [1] is the Lucas number L_p, of about 2.1 million digits here
        for command, p_flag in (("zeta", "--primes"), ("localize", "--p")):
            start = time.monotonic()
            code, out, err = run(capsys, command, "--model", "[0,0,0,-1,0]", p_flag, "10000019", "--period", "1")
            assert time.monotonic() - start < 1, command
            assert code == 2 and out == ""
            assert err == "error: guard exceeded: tr(A^10000019) of the period passes 4300 digits\n"

    @staticmethod
    def power_trace(t, det, p):
        # tr(m^n) = t tr(m^(n-1)) - det tr(m^(n-2)) for a 2 x 2 m
        s_prev, s = 2, t
        for _ in range(p - 1):
            s_prev, s = s, t * s - det * s_prev
        return s

    @pytest.mark.parametrize(
        "period, t, det, p",
        # tr(A^p) of 4300 digits, which prints: the matrix guard's margin would
        # refuse both, and for the even period a bound that takes det = -1
        # reads 4713 digits
        [("3", 3, -1, 8287), ("2,1", 4, 1, 7517)],
    )
    def test_exploration_trace_guard_passes_what_prints(self, capsys, period, t, det, p):
        trace = self.power_trace(t, det, p)
        assert len(str(trace)) == 4300
        args = ("--model", "[0,0,0,-1,0]", "--period", period)
        code, out, _ = run(capsys, "localize", *args, "--p", str(p), "--nmax", "1")
        assert code == 0 and json.loads(out)["exploration"]["trace_ap_matrix"] == trace
        code, out, _ = run(capsys, "zeta", *args, "--primes", str(p), "--order", "1")
        (report,) = json.loads(out)
        assert code == 1 and report["torus_coeffs"] == ["1", str(abs(1 - trace + p))]

    def test_exploration_trace_guard_skips_bad_primes(self, capsys):
        # y^2 = x^3 + 20593 is bad at 20593, where no tr(A^p) is taken, and
        # good at 20563, where L_20563 has 4298 digits
        code, out, _ = run(
            capsys, "zeta", "--model", "[0,0,0,0,20593]", "--primes", "20563,20593", "--order", "1", "--period", "1"
        )
        good, bad = json.loads(out)
        assert code == 1 and good["good"] and not bad["good"]
        assert good["torus_coeffs"] == ["1", str(abs(1 - self.power_trace(1, -1, 20563) + 20563))]
        code, out, err = run(capsys, "zeta", "--model", "[0,0,0,-1,0]", "--primes", "20563,20593", "--period", "1")
        assert code == 2 and out == ""
        assert err == "error: guard exceeded: tr(A^20593) of the period passes 4300 digits\n"


class TestBadPrimes:
    """Nodes are classified from c4 and -c6 at any p up to 10^12;
    y^2 = x^3 + a2 x^2 is split exactly when a2 is a square mod p."""

    @pytest.mark.parametrize(
        "model,p,kind,alpha",
        [
            ("[0,1,0,0,0]", "10007", "split_multiplicative", 1),
            ("[0,-1,0,0,0]", "10007", "nonsplit_multiplicative", -1),  # 10007 = 3 mod 4
            ("[0,-1,0,0,0]", "999999999989", "split_multiplicative", 1),  # = 1 mod 4
        ],
    )
    def test_localize_zeta_theorem1(self, capsys, model, p, kind, alpha):
        code, out, _ = run(capsys, "localize", "--model", model, "--p", p, "--nmax", "2")
        data = json.loads(out)
        assert code == 0 and data["reduction"] == kind and data["alpha"] == alpha
        assert data["curve_counts"] == [int(p) - alpha, int(p) ** 2 - 1]
        code, out, _ = run(capsys, "zeta", "--model", model, "--primes", p, "--order", "3")
        (report,) = json.loads(out)
        assert code == 0 and not report["good"] and report["alpha"] == alpha
        code, out, _ = run(capsys, "theorem1", "--model", model, "--p", p, "--trials", "3")
        data = json.loads(out)
        assert code == 0 and data["all_passed"] and data["baseline"] == f"alpha={alpha}"

    def test_curve_brute_count_past_its_guard(self, capsys):
        code, out, err = run(capsys, "curve", "--model", "[0,1,0,0,0]", "--p", "1000003")
        assert code == 2 and out == "" and "guard exceeded: p^n > 10^6" in err


GOLDENS = Path(__file__).parent / "goldens"


class TestGoldens:
    """Exact stdout of reduction types no other test pins byte for byte.

    Each file holds the command on its first line and the expected stdout
    after it.  The exit code is 0 unless the command line ends in
    "  # exit N".  The file is read as bytes, so that the "\r\n" row ends
    of a --format csv golden are compared too.
    """

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDENS.glob("*.txt")))
    def test_stdout_byte_identical(self, capsys, name):
        command, expected = (GOLDENS / f"{name}.txt").read_bytes().decode().split("\n", 1)
        command, _, exit_code = command.partition("  # exit ")
        code, out, err = run(capsys, *command.split()[1:])
        assert code == int(exit_code or 0) and err == ""
        assert out == expected


def render(value) -> str:
    pieces: list = []
    _render_json(value, pieces)
    return "".join(pieces)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u4e2d\U0001f600", '"\\/', "\ud800"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(st.integers(), max_size=6)
    | st.lists(st.text(max_size=8), max_size=6)
    | st.dictionaries(st.text(max_size=8), inner, max_size=6),
    max_leaves=40,
)


class TestRenderJson:
    """The renderer gives the bytes of json.dumps(payload, indent=2)."""

    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert render(value) == json.dumps(value, indent=2)

    def test_long_int_lists_render_as_json_dumps(self):
        # about the blocks in which the ints are joined
        b = JOIN_BLOCK
        for n in (0, 1, b - 1, b, b + 1, 2 * b + 5):
            value = {"n": n, "ints": [(-1) ** i * i * 10**18 for i in range(n)], "bools": [True, 1, False]}
            assert render(value) == json.dumps(value, indent=2)

    def test_string_lists_render_as_json_dumps(self):
        # escapes inside a joined block, and the blocks in which the strings
        # are joined; a list that mixes kinds renders item by item
        b = JOIN_BLOCK
        lists = [
            ['"', "\\", '\\"', "", "\x00\x1f\n\t\r\x7f", "\u00e9\u4e2d\U0001d11e\ud800", "-7/12", ""],
            [""],
            ["", ""],
            ["a", 1],
            [1, "a"],
            ["a", True],
        ]
        lists += [[('"', "\\", "\u00e9")[i % 3] + str(i % 7) for i in range(n)] for n in (b - 1, b, b + 1, 2 * b + 5)]
        for items in lists:
            value = [{"p": 2, "curve_coeffs": items, "torus_coeffs": list(items), "verdict": "match"}]
            assert render(value) == json.dumps(value, indent=2)
            # CSV prints each list as json.dumps gives it
            (row,) = csv.DictReader(io.StringIO(cli._render_csv(value)))
            text = json.dumps(items)
            assert row == {"p": "2", "curve_coeffs": text, "torus_coeffs": text, "verdict": "match"}

    def test_long_strings_render_as_json_dumps(self):
        # past _TEXT_SLICE a string that needs no escapes is printed itself
        n = cli._TEXT_SLICE
        for tail in ("", "a", '"', "\\", "\n", "\x1f", "\x7f", "\u00e9", "\ud800"):
            for text in ("x" * (n - 1) + tail, "x" * n + tail, tail + "y" * (2 * n)):
                assert render({"s": [text]}) == json.dumps({"s": [text]}, indent=2)
                assert render({"s": text}) == json.dumps({"s": text}, indent=2)

    def test_tuples_and_non_string_keys_render_like_json(self):
        value = {1: (1, 2), 2.5: ((), [()]), None: {True: (None, "x")}, False: [1.5, -0.0, 10**30]}
        assert render(value) == json.dumps(value, indent=2)

    def test_scalars_and_escapes_render_as_json_dumps(self):
        # what the renderer writes itself, next to what it leaves to json
        strings = ['"', "\\", "a\"b\\c", "\x00", "\x1f", "\n\t\r", "\x7f", "~ !", "\u00e9", "\u4e2d\U0001f600", "\ud800"]
        floats = [0.0, -0.0, 1.5, 1e300, -2.5e-308, 5e-324, float("inf"), float("-inf"), float("nan")]
        keys = [1, -7, 10**30, 1.5, -0.0, float("inf"), float("nan"), True, False, None, "", '"', "\x7f", "\u00e9"]
        value = {
            "strings": strings,
            "floats": floats,
            "mixed": [*strings, *floats, True, False, None, 3],
            "keys": dict(zip(keys, range(len(keys)))),
            "nested": [{k: s} for k, s in zip(keys, strings)],
        }
        assert render(value) == json.dumps(value, indent=2)
        for item in [*strings, *floats, *keys, [], {}]:
            assert render(item) == json.dumps(item, indent=2)
            assert render([item, item]) == json.dumps([item, item], indent=2)

    def test_rendering_error_leaves_stdout_empty(self, capsys, monkeypatch):
        # an int past Python's int-to-str limit fails late in the document
        monkeypatch.setattr(cli, "_cmd_cf", lambda args: ({"period": list(range(9000)), "big": 10**5000}, False))
        code, out, err = run(capsys, "cf", "sqrt(2)")
        assert code == 2 and out == "" and err.startswith("error: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("d", [10000000391, 100000000487, 1000000000039])
    def test_cf_payloads_of_the_benchmark_pools(self, d):
        value = f"(1+sqrt({d}))/1"
        payload, _ = _cmd_cf(argparse.Namespace(value=value))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["cf", value])
        assert code == 0 and out.getvalue() == json.dumps(payload, indent=2) + "\n"

    def test_cf_digits_across_blocks_and_slices(self, capsys):
        # k + 1/x taken 4100 times over the reduced sqrt(D) + isqrt(D), whose
        # period has 24,638 digits: a preperiod past JOIN_BLOCK digits, and a
        # display and period past _TEXT_SLICE characters
        d = 1000000123
        p, q = isqrt(d), 1
        for k in range(4100):
            p, q = -p, (d - p * p) // q
            p += (1 + k % 3) * q
        value = f"({p}+sqrt({d}))/{q}"
        code, out, _ = run(capsys, "cf", value)
        data = json.loads(out)
        assert code == 0 and len(data["preperiod"]) > JOIN_BLOCK and len(data["period"]) == 24638
        assert len(data["display"]) > cli._TEXT_SLICE
        payload, _ = _cmd_cf(argparse.Namespace(value=value))
        plain = {k: list(v) if isinstance(v, list) else v for k, v in payload.items()}
        assert out == json.dumps(plain, indent=2) + "\n"
        code, out, _ = run(capsys, "cf", value, "--format", "csv")
        (row,) = csv.DictReader(io.StringIO(out))
        assert code == 0 and row == {
            k: json.dumps(v) if isinstance(v, list) else str(v) for k, v in data.items()
        }


SUBCOMMANDS = ("cf", "matrix", "k0", "curve", "localize", "zeta", "theorem1", "catalog")


def parser_output(parser, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


class TestParser:
    """A parser built for one argv adds only the arguments of the
    subcommand that argv names, and prints the texts of the full one."""

    @pytest.mark.parametrize(
        "argv",
        [[], ["--help"], ["--bogus", "zeta"], ["nope"], ["cf", "sqrt(2)"], ["zeta", "--model", "[0,0,0,-1,0]"]],
    )
    def test_top_level_texts_match_the_full_build(self, argv):
        full, one = cli.build_parser(), cli.build_parser(argv)
        assert one.format_usage() == full.format_usage()
        assert one.format_help() == full.format_help()

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_only_the_named_subcommand_has_arguments(self, name):
        (sub,) = (a for a in cli.build_parser([name])._actions if isinstance(a, argparse._SubParsersAction))
        (full_sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(full_sub.choices) == list(SUBCOMMANDS)
        for other, p in sub.choices.items():
            n_actions = len(full_sub.choices[other]._actions) if other == name else 1  # -h alone
            assert len(p._actions) == n_actions
            assert p.get_default("func") is getattr(cli, f"_cmd_{other}")

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    @pytest.mark.parametrize("tail", [["--help"], [], ["--bogus"]])
    def test_subcommand_texts_match_the_full_build(self, capsys, name, tail):
        argv = ["--bogus", name, *tail]
        full = parser_output(cli.build_parser(), argv, capsys)
        assert full[0] in (0, 2) and parser_output(cli.build_parser(argv), argv, capsys) == full


def parsed(parser, argv):
    """vars() of the namespace argparse reads from argv, or None where it
    prints help or a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def split_items(argv) -> tuple:
    """The subcommand, and the rest of a canonical argv as its items: each
    "--name value" pair, and the positional, as a tuple of tokens."""
    rest, items = list(argv[1:]), []
    while rest:
        n = 2 if rest[0].startswith("-") else 1
        items.append(tuple(rest[:n]))
        del rest[:n]
    return argv[0], items


# values in place of an option's value: negative, empty, a lone "-",
# bad ints and choices, ints that int() reads although they are not ASCII
# digits, and the tokens that only argparse knows
ODD_VALUES = ["-3", "", "-", "five", "1.5", " 5 ", "\u0663", "1_0", "json", "xml", "signed", "both", "--", "-h"]


def variants(argv):
    """Command lines near a canonical argv: its items in every order, each
    item repeated or dropped, each pair as --name=value or with its name
    cut short, each value replaced by an odd one, help or "--" at every
    position, a token too many and one too few."""
    name, items = split_items(argv)

    def line(items):
        return [name, *(token for item in items for token in item)]

    for order in permutations(items):
        yield line(order)
    for i, item in enumerate(items):
        yield line(items + [item])
        yield line(items[:i] + items[i + 1 :])
        if len(item) == 2:
            flag, value = item
            yield line(items[:i] + [(f"{flag}={value}",)] + items[i + 1 :])
            yield line(items[:i] + [(flag[:-1], value)] + items[i + 1 :])
            for odd in ODD_VALUES:
                yield line(items[:i] + [(flag, odd)] + items[i + 1 :])
        else:
            for odd in ODD_VALUES:
                yield line(items[:i] + [(odd,)] + items[i + 1 :])
    tokens = line(items)
    for i in range(1, len(tokens) + 1):
        for extra in ("-h", "--help", "--", "extra"):
            yield tokens[:i] + [extra] + tokens[i:]
    yield tokens[:-1]


def benchmark_argvs() -> list:
    return [list(args) for _, args in compare_outputs.benchmark_jobs(list(compare_outputs.workloads.WORKLOADS), [301, 302, 303])]


def known_argvs() -> list:
    """Every command line the tests and the benchmark run: the reach
    commands, the parser cases of compare_outputs, the goldens, and every
    batch and edge job of the four workloads at seeds 301-303."""
    goldens = [
        (GOLDENS / f"{g}.txt").read_text().split("\n", 1)[0].partition("  # exit ")[0].split()[1:]
        for g in sorted(p.stem for p in GOLDENS.glob("*.txt"))
    ]
    return [*test_reach.COMMANDS, *compare_outputs.PARSER_CASES, *goldens, *benchmark_argvs()]


ARGV_TOKENS = [
    *SUBCOMMANDS,
    # in table order, so that hypothesis draws the same tokens under any hash seed
    *dict.fromkeys(flag for _, *options in cli._COMMANDS.values() for flag, _ in options),
    "-h", "--help", "--", "--p=5", "--pe", "--form", "--format=csv",
    "5", "-3", "", "five", "json", "csv", "xml", "absolute", "signed", "2,1", "2..30", "[0,0,0,-1,0]", "sqrt(2)",
]


class TestReadArgv:
    """cli._read_argv either leaves a command line to argparse or reads
    from it what argparse reads, and it reads every benchmark job."""

    @pytest.fixture(scope="class")
    def parser(self):
        return cli.build_parser()

    def check(self, parser, argv) -> bool:
        read = cli._read_argv(argv)
        if read is not None:
            assert vars(read) == parsed(parser, argv), argv
        return read is not None

    def test_every_benchmark_job_is_read_without_argparse(self):
        argvs = benchmark_argvs()
        assert {a[0] for a in argvs} == {"cf", "matrix", "k0", "curve", "localize", "zeta", "theorem1"}
        assert [a for a in argvs if cli._read_argv(a) is None] == []

    def test_known_command_lines_read_as_argparse_reads_them(self, parser):
        argvs = known_argvs()
        read = [a for a in argvs if self.check(parser, a)]
        # the fallback forms are argparse's alone
        assert all(a in read for a in benchmark_argvs())
        assert ["curve", "--model=[0,0,0,-1,0]", "--p", "5"] not in read
        assert not any(a in read for a in compare_outputs.PARSER_CASES[-8:])

    def test_variants_read_as_argparse_reads_them(self, parser):
        # one command line of each shape: subcommand and option names
        bases = {}
        for argv in known_argvs():
            if cli._read_argv(argv) is not None:
                name, items = split_items(argv)
                bases.setdefault((name, tuple(item[0] for item in items if len(item) == 2)), argv)
        assert {shape[0] for shape in bases} == set(SUBCOMMANDS)
        read = total = 0
        for argv in bases.values():
            for variant in variants(argv):
                total += 1
                read += self.check(parser, variant)
        # every order of the items is read, and so are a few odd values
        assert 0 < read < total

    def test_refuses_what_is_not_canonical(self, parser):
        model = "[0,0,0,-1,0]"
        for argv in (
            ["curve", "--model", model, "--p", "5", "--p", "5"],
            ["curve", "--model", model, "--", "--p", "5"],
            ["theorem1", "--model", model, "--p", "5", "--seed", "-3"],
            ["curve", "-h", "--model", model],
            ["curve", "--model", model, "--p", "five"],
            ["curve", "--mod", model],
            ["curve", f"--model={model}"],
            ["zeta", "--model", model, "--primes", "2..30", "--mode", "both"],
            ["cf"],
            ["cf", "sqrt(2)", "sqrt(3)"],
            ["k0", "--matrix"],
            [],
            ["--help"],
        ):
            assert cli._read_argv(argv) is None, argv
        # argparse reads some of them all the same
        assert parsed(parser, ["theorem1", "--model", model, "--p", "5", "--seed", "-3"])["seed"] == -3

    def test_handler_looked_up_on_each_call(self, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_k0", lambda args: ({}, False))
        assert cli._read_argv(["k0", "--matrix", "[[1]]"]).func is cli._cmd_k0

    @given(st.sampled_from([*SUBCOMMANDS, "nope", "--help"]), st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
    @settings(max_examples=400)
    def test_token_soup_reads_as_argparse_reads_it(self, name, rest):
        self.check(cli.build_parser(), [name, *rest])


class TestBrokenPipe:
    def test_reader_closing_early_exits_141_without_a_traceback(self):
        # about 200 kB of output, past any pipe buffer
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "nclocal.cli", "cf", "sqrt(1000000123)"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert head.startswith(b'{\n  "input": ') and err == b""
