import json
from pathlib import Path

import pytest

from nclocal.cli import main


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


GOLDENS = Path(__file__).parent / "goldens"


class TestGoldens:
    """Exact stdout of reduction types no other test pins byte for byte.

    Each file holds the command on its first line and the expected stdout
    after it.
    """

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDENS.glob("*.txt")))
    def test_stdout_byte_identical(self, capsys, name):
        command, expected = (GOLDENS / f"{name}.txt").read_text().split("\n", 1)
        code, out, err = run(capsys, *command.split()[1:])
        assert code == 0 and err == ""
        assert out == expected
