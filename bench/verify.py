"""Independent output checks for the benchmark's CLI jobs.

Nothing here imports nclocal: every identity is confirmed with arithmetic
written for the harness (Euler-criterion point counts, the Weierstrass
discriminant, a fraction-free determinant, the continued-fraction state
recurrence).  A check returns None when the output holds and otherwise a
short string naming the identity that broke.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

TRACEBACK_MARK = "Traceback (most recent call last)"


# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------


def primes_upto(n: int) -> list:
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0  # n >= 1
    for i in range(2, isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if flags[i]]


def discriminant(a: list) -> int:
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def frobenius_trace(a: list, p: int) -> int:
    """p minus the number of affine F_p-solutions of the integral model a.

    This is a_p at a good prime and alpha (the #E_ns = p - alpha
    convention) at a bad one, since a singular reduction has exactly one
    singular point.  Odd p uses Euler's criterion on the discriminant of
    the quadratic in y; p = 2 is enumerated.
    """
    a1, a2, a3, a4, a6 = (c % p for c in a)
    if p == 2:
        affine = sum(
            1
            for x in range(2)
            for y in range(2)
            if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0
        )
        return p - affine
    square = bytearray(p)
    for y in range(1, p // 2 + 1):
        square[y * y % p] = 1
    affine = 0
    for x in range(p):
        b = a1 * x + a3
        d = (b * b + 4 * (((x + a2) * x + a4) * x + a6)) % p
        affine += 1 if d == 0 else (2 if square[d] else 0)
    return p - affine


def counts_from_trace(ap: int, p: int, n_max: int) -> list:
    """#E(F_{p^k}) for k = 1..n_max from the eigenvalue power sums."""
    out = []
    s_prev, s_cur = 2, ap
    for k in range(1, n_max + 1):
        out.append(p**k + 1 - s_cur)
        s_prev, s_cur = s_cur, ap * s_cur - p * s_prev
    return out


def curve_series(t: int, p: int, good: bool, order: int) -> list:
    """Coefficients of exp(sum N_k z^k / k) up to z^order, as integers.

    Good: (1 - t z + p z^2) / ((1 - z)(1 - p z)).  Bad: (1 - t z) / (1 - p z),
    from N_k = p^k - t^k.
    """
    if good:
        h = [(p ** (k + 1) - 1) // (p - 1) for k in range(order + 1)]
        return [
            h[k] - (t * h[k - 1] if k >= 1 else 0) + (p * h[k - 2] if k >= 2 else 0)
            for k in range(order + 1)
        ]
    return [1] + [p**k - t * p ** (k - 1) for k in range(1, order + 1)]


def abs_det(rows: list) -> int:
    """|det| by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return abs(int(det))


def mat2_mul(x: list, y: list) -> list:
    return [
        [x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]],
        [x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]],
    ]


def incidence(period: list) -> list:
    m = [[1, 0], [0, 1]]
    for a in period:
        m = mat2_mul(m, [[a, 1], [1, 0]])
    return m


def mat2_pow(m: list, k: int) -> list:
    out = [[1, 0], [0, 1]]
    while k:
        if k & 1:
            out = mat2_mul(out, m)
        m = mat2_mul(m, m)
        k >>= 1
    return out


def quad_floor(P: int, D: int, Q: int) -> int:
    """floor((P + sqrt(D)) / Q) for nonsquare D."""
    s = P + isqrt(D)
    return s // Q if Q > 0 else -(s // -Q) - 1


# ---------------------------------------------------------------------------
# per-command identities
# ---------------------------------------------------------------------------


def _group_ok(factors, n_points: int, q: int):
    if factors is None:
        return None
    d1, d2 = factors
    if d1 * d2 != n_points:
        return f"d1*d2 = N ({d1}*{d2} != {n_points})"
    if d2 % d1:
        return f"d1 | d2 ({d1}, {d2})"
    if (q - 1) % d1:
        return f"d1 | q-1 ({d1}, q={q})"
    return None


def _chain_ok(factors: list):
    for a, b in zip(factors, factors[1:]):
        if a == 0 and b != 0:
            return "invariant factors: zeros last"
        if a != 0 and b % a:
            return f"invariant factors: {a} | {b}"
    return None


def _product(factors: list) -> int:
    out = 1
    for d in factors:
        out *= d
    return out


def check_curve(out: dict, ctx: dict):
    a, p, n = ctx["model"], ctx["p"], ctx["n"]
    good = discriminant(a) % p != 0
    if (out["reduction"] == "good") != good:
        return f"reduction type follows p | disc (program says {out['reduction']})"
    t = frobenius_trace(a, p)
    if not good:
        if out["alpha"] != t:
            return f"alpha = p - #affine ({out['alpha']} != {t})"
        if out["nonsingular_counts"] != [p**k - t**k for k in range(1, n + 1)]:
            return "nonsingular counts = p^n - alpha^n"
        if out["nonsingular_count_brute"] != p - t:
            return "brute nonsingular count = p - alpha"
        return None
    if out["a_p"] != t:
        return f"a_p equals the Euler-criterion count ({out['a_p']} != {t})"
    counts = counts_from_trace(t, p, n)
    if out["counts"] != counts:
        return "counts follow the trace recurrence"
    for k, factors in enumerate(out["groups"], start=1):
        bad = _group_ok(factors, counts[k - 1], p**k)
        if bad:
            return f"group at n={k}: {bad}"
    return None


def check_localize(out: dict, ctx: dict):
    a, p, n = ctx["model"], ctx["p"], ctx["nmax"]
    good = discriminant(a) % p != 0
    if (out["reduction"] == "good") != good:
        return f"reduction type follows p | disc (program says {out['reduction']})"
    t = frobenius_trace(a, p)
    for factors, order in zip(out["k0_invariant_factors"], out["k0_orders"]):
        bad = _chain_ok(factors)
        if bad:
            return bad
        if _product(factors) != order:
            return "K0 invariant factors multiply to the K0 order"
    if not good:
        if out["alpha"] != t:
            return f"alpha = p - #affine ({out['alpha']} != {t})"
        if out["curve_counts"] != [p**k - t**k for k in range(1, n + 1)]:
            return "nonsingular counts = p^n - alpha^n"
        if out["k0_orders"] != [abs(t**k) for k in range(1, n + 1)]:
            return "bad-prime K0 order = |alpha^n|"
        return None
    if out["a_p"] != t:
        return f"a_p equals the Euler-criterion count ({out['a_p']} != {t})"
    counts = counts_from_trace(t, p, n)
    if out["curve_counts"] != counts:
        return "counts follow the trace recurrence"
    if out["k0_orders"] != counts:
        return "K0 order equals the curve count at every level"
    for k, factors in enumerate(out["curve_groups"], start=1):
        bad = _group_ok(factors, counts[k - 1], p**k)
        if bad:
            return f"group at n={k}: {bad}"
    return None


def check_zeta(out: list, ctx: dict):
    a, order = ctx["model"], ctx["order"]
    disc = discriminant(a)
    if [r["p"] for r in out] != ctx["primes"]:
        return "one report per requested prime"
    for r in out:
        p = r["p"]
        good = disc % p != 0
        if r["good"] != good:
            return f"p={p}: reduction type follows p | disc"
        t = frobenius_trace(a, p)
        want = [str(c) for c in curve_series(t, p, good, order)]
        if r["curve_coeffs"] != want:
            return f"p={p}: curve series equals the Euler-count zeta factor"
        if good and not ctx.get("exploration"):
            if r["torus_coeffs"] != r["curve_coeffs"] or r["verdict"] != "match":
                return f"p={p}: curve and torus coefficients are equal at good primes"
        if not good:
            if r["alpha"] != t:
                return f"p={p}: alpha = p - #affine"
            torus = ["1"] + ["1" if t else "0"] * order
            if r["torus_coeffs"] != torus:
                return f"p={p}: bad-prime torus factor is exp(sum |alpha^n| z^n / n)"
    return None


def check_theorem1(out: dict, ctx: dict):
    a, p = ctx["model"], ctx["p"]
    t = frobenius_trace(a, p)
    if discriminant(a) % p == 0:
        return "theorem1 jobs use good primes"
    if out["baseline"] != f"[[{t},{p}],[-1,0]]":
        return f"baseline L_p carries the Euler-count a_p ({out['baseline']}, a_p={t})"
    if len(out["trials"]) != ctx["trials"]:
        return "one record per trial"
    if not out["all_passed"] or not all(tr["passed"] for tr in out["trials"]):
        return "every isomorphic model gives the same L_p"
    return None


def check_k0(out: dict, ctx: dict):
    rows = ctx["matrix"]
    n = len(rows)
    factors = out["invariant_factors"]
    bad = _chain_ok(factors)
    if bad:
        return bad
    rel = [[(1 if i == j else 0) - rows[j][i] for j in range(n)] for i in range(n)]
    det = abs_det(rel)
    if _product(factors) != det:
        return f"invariant factors multiply to |det(I - A^t)| ({det})"
    if out["order"] != det:
        return "order field equals |det(I - A^t)|"
    return None


def check_matrix(out: dict, ctx: dict):
    period, k = ctx["period"], ctx["pow"]
    m = incidence(period)
    if out["matrix"] != m:
        return "matrix is the product of (a,1;1,0) over the period"
    if out["det"] != (-1) ** len(period):
        return "det of the incidence matrix is (-1)^len"
    if out["trace"] != m[0][0] + m[1][1]:
        return "trace of the incidence matrix"
    mk = mat2_pow(m, k)
    if out["matrix_pow"] != mk or out["trace_pow"] != mk[0][0] + mk[1][1]:
        return "matrix_pow is the exact power"
    return None


def check_cf(out: dict, ctx: dict):
    """The digits must be forced by the input value, and the recurrence state
    after preperiod + period must equal the state after the preperiod: then
    [pre; (per)] evaluates exactly to (P + sqrt(D)) / Q."""
    P, D, Q = ctx["P"], ctx["D"], ctx["Q"]
    pre, per = out["preperiod"], out["period"]
    if not per:
        return "a quadratic irrational has a nonempty period"
    state_at_period = None
    for i, a in enumerate(pre + per):
        if i == len(pre):
            state_at_period = (P, Q)
        if a != quad_floor(P, D, Q):
            return f"cf re-evaluates to its input (digit {i})"
        P = a * Q - P
        Q = (D - P * P) // Q
    if (P, Q) != state_at_period:
        return "cf re-evaluates to its input (period does not close)"
    return None


CHECKS = {
    "curve": check_curve,
    "localize": check_localize,
    "zeta": check_zeta,
    "theorem1": check_theorem1,
    "k0": check_k0,
    "matrix": check_matrix,
    "cf": check_cf,
}


def failed_verdict(command: str, out) -> bool:
    if command == "zeta":
        return any(r["good"] and r["verdict"] != "match" for r in out)
    if command == "theorem1":
        return not out["all_passed"]
    return False


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1][:200] if lines else ""


PASS, WRONG, ERROR = "pass", "wrong", "error"


def classify(job, returncode, stdout: bytes, stderr: bytes):
    """(status, reason) for one finished job; status is PASS, WRONG (an
    output contradicts an identity) or ERROR (no usable output).

    Exit 0 passes when its output satisfies the job's identities.  Exit 1
    passes only when stdout holds a failed verdict (zeta, theorem1), and
    the identities are still checked.  A traceback, a timeout, a signal or
    any other exit code is a failure.
    """
    err = stderr.decode("utf-8", "replace")
    if returncode is None:
        return ERROR, "deadline exceeded"
    if TRACEBACK_MARK in err:
        return ERROR, f"traceback (exit {returncode}): {_last_line(err)}"
    if returncode not in (0, 1):
        what = "input error" if returncode == 2 else f"exit {returncode}"
        return ERROR, f"{what}: {_last_line(err)}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return ERROR, f"exit {returncode} with unparsable stdout"
    if returncode == 1 and not failed_verdict(job.command, out):
        return ERROR, "exit 1 without a failed verdict"
    try:
        broken = CHECKS[job.command](out, job.ctx)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        broken = f"output shape ({type(exc).__name__}: {exc})"
    if broken:
        return WRONG, f"identity failed: {broken}"
    return PASS, ""
