"""Command-line interface.

Subcommands mirror the library pipeline: cf, matrix, k0, curve,
localize, zeta, theorem1, catalog.  Output is JSON (default) or CSV.
Exit codes: 0 on full pass, 1 when any verdict fails (a good-prime
series mismatch or a failed transform trial), 2 on input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from . import catalog as catalog_mod
from .ck_k0 import CKDescriptor, k0_group, k0_order
from .elliptic import (
    AP_GUARD,
    GROUP_GUARD,
    WeierstrassModel,
    count_nonsingular,
    group_structure,
    invariants,
    j_invariant,
)
from .functor import MAX_LEVEL, localize, theorem1_check
from .intmat import IntMatrix, mat_pow
from .quadratic_cf import QuadraticIrrational, cf_expand, incidence_matrix, is_reduced
from .zeta import DEFAULT_ORDER, lemma1_check, local_data

# integers in a --primes range; 362 primes just below AP_GUARD take 10 s
# (12 s at --order 12) on one core of a 2-vCPU VM
PRIMES_SPAN_GUARD = 10**4
# largest series order of zeta; --primes 2..10001 at order 12 takes 4.4 s
ORDER_GUARD = 12
# most theorem1 trials; 100 at p = 999999999989 take 3.3 s
TRIALS_GUARD = 100


def _parse_period(text: str) -> list:
    try:
        period = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse period {text!r}") from None
    if not period:
        raise ValueError("empty period")
    return period


def _parse_primes(text: str) -> list:
    """Primes of "lo..hi" or "p,q,..."; the guards are checked before any
    primality test runs."""
    from ._factor import is_prime

    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = max(int(lo_s), 2), int(hi_s)
        if hi - lo + 1 > PRIMES_SPAN_GUARD:
            raise ValueError(f"guard exceeded: prime range {text!r} spans more than 10^4 integers")
        if hi > AP_GUARD:
            raise ValueError(f"guard exceeded: prime range {text!r} reaches past 10^12")
        return [p for p in range(lo, hi + 1) if is_prime(p)]
    primes = [int(tok) for tok in text.split(",")]
    for p in primes:
        if p > AP_GUARD:
            raise ValueError(f"guard exceeded: prime {p} > 10^12")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return primes


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, verdict_failed)
# ---------------------------------------------------------------------------


def _cmd_cf(args) -> tuple:
    x = QuadraticIrrational.parse(args.value)
    exp = cf_expand(x)
    payload = {
        "input": str(x),
        "value_approx": float(x),
        "preperiod": list(exp.preperiod),
        "period": list(exp.period),
        "display": str(exp),
        "purely_periodic": exp.is_purely_periodic,
        "reduced": is_reduced(x),
    }
    return payload, False


def _cmd_matrix(args) -> tuple:
    period = _parse_period(args.period)
    m = incidence_matrix(period)
    payload = {"period": period, "matrix": m.to_rows(), "det": m.det(), "trace": m.trace()}
    if args.pow is not None:
        powered = mat_pow(m, args.pow)
        payload["pow"] = args.pow
        payload["matrix_pow"] = powered.to_rows()
        payload["trace_pow"] = powered.trace()
    return payload, False


def _cmd_k0(args) -> tuple:
    m = IntMatrix.parse(args.matrix)
    if not m.is_square:
        raise ValueError("k0 needs a square matrix")
    desc = CKDescriptor(kind="matrix", matrix=m)
    group = k0_group(desc)
    payload = {
        "matrix": m.to_rows(),
        "invariant_factors": list(group.invariant_factors),
        "group": str(group),
        "order": k0_order(desc),
    }
    return payload, False


def _cmd_curve(args) -> tuple:
    if not 1 <= args.n <= MAX_LEVEL:
        raise ValueError(f"--n must be between 1 and {MAX_LEVEL}")
    e = WeierstrassModel.parse(args.model)
    inv = invariants(e)
    payload = {
        "model": e.coefficient_strings(),
        "b2": str(inv.b2),
        "b4": str(inv.b4),
        "b6": str(inv.b6),
        "b8": str(inv.b8),
        "c4": str(inv.c4),
        "c6": str(inv.c6),
        "disc": str(inv.disc),
    }
    if inv.disc != 0:
        payload["j"] = str(j_invariant(e))
    if args.p is not None:
        local = local_data(e, args.p)
        rt = local.reduction
        payload["p"] = args.p
        payload["reduction"] = rt.kind.value
        if rt.is_good:
            payload["a_p"] = local.a_p
            payload["counts"] = local.point_counts(args.n)
            payload["groups"] = [
                list(group_structure(local.reduced, n).invariant_factors) if args.p**n <= GROUP_GUARD else None
                for n in range(1, args.n + 1)
            ]
        else:
            payload["alpha"] = rt.alpha
            payload["nonsingular_counts"] = local.point_counts(args.n)
            payload["nonsingular_count_brute"] = count_nonsingular(local.reduced, 1)
    return payload, False


def _cmd_localize(args) -> tuple:
    e = WeierstrassModel.parse(args.model)
    period = _parse_period(args.period) if args.period else None
    res = localize(e, args.p, args.nmax, period=period)
    return res.to_json_dict(), False


def _cmd_zeta(args) -> tuple:
    if not 1 <= args.order <= ORDER_GUARD:
        raise ValueError(f"--order must be between 1 and {ORDER_GUARD}")
    e = WeierstrassModel.parse(args.model)
    primes = _parse_primes(args.primes)
    period = _parse_period(args.period) if args.period else None
    reports = lemma1_check(e, primes, args.order, period=period, mode=args.mode)
    payload = [r.to_json_dict() for r in reports]
    failed = any(r.good and r.verdict != "match" for r in reports)
    return payload, failed


def _cmd_theorem1(args) -> tuple:
    if not 1 <= args.trials <= TRIALS_GUARD:
        raise ValueError(f"--trials must be between 1 and {TRIALS_GUARD}")
    e = WeierstrassModel.parse(args.model)
    report = theorem1_check(e, args.p, args.trials, args.seed)
    return report.to_json_dict(), not report.all_passed


def _cmd_catalog(args) -> tuple:
    entries = catalog_mod.load_catalog(args.file)
    return [entry.to_json_dict() for entry in entries], False


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_csv(payload) -> str:
    rows = payload if isinstance(payload, list) else [payload]
    buf = io.StringIO()
    if rows and all(isinstance(r, dict) for r in rows):
        headers: list = []
        for r in rows:
            for key in r:
                if key not in headers:
                    headers.append(key)
        writer = csv.DictWriter(buf, fieldnames=headers)
        writer.writeheader()
        for r in rows:
            writer.writerow(
                {k: json.dumps(v) if isinstance(v, (list, dict)) else v for k, v in r.items()}
            )
    else:
        writer = csv.writer(buf)
        for r in rows:
            writer.writerow([r])
    return buf.getvalue().rstrip("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclocal",
        description="Exact-arithmetic localization of CM curves into Cuntz-Krieger data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_cf = sub.add_parser("cf", help="continued fraction of a quadratic irrational")
    p_cf.add_argument("value", help='e.g. "(1+sqrt(5))/2" or "sqrt(2)"')
    add_format(p_cf)
    p_cf.set_defaults(func=_cmd_cf)

    p_mat = sub.add_parser("matrix", help="incidence matrix of a period")
    p_mat.add_argument("--period", required=True, help="comma-separated, e.g. 2,1")
    p_mat.add_argument("--pow", type=int, default=None)
    add_format(p_mat)
    p_mat.set_defaults(func=_cmd_matrix)

    p_k0 = sub.add_parser("k0", help="K0 invariant factors of a Cuntz-Krieger matrix")
    p_k0.add_argument("--matrix", required=True, help='e.g. "[[0,3],[-1,0]]"')
    add_format(p_k0)
    p_k0.set_defaults(func=_cmd_k0)

    p_curve = sub.add_parser("curve", help="invariants, reduction type, counts, groups")
    p_curve.add_argument("--model", required=True, help='"[a1,a2,a3,a4,a6]", rationals as "n/d"')
    p_curve.add_argument("--p", type=int, default=None)
    p_curve.add_argument("--n", type=int, default=1, help=f"levels 1..{MAX_LEVEL}")
    add_format(p_curve)
    p_curve.set_defaults(func=_cmd_curve)

    p_loc = sub.add_parser("localize", help="full localization data at a prime")
    p_loc.add_argument("--model", required=True)
    p_loc.add_argument("--p", type=int, required=True)
    p_loc.add_argument("--nmax", type=int, default=2, help=f"levels 1..{MAX_LEVEL}")
    p_loc.add_argument("--period", default=None, help="exploration-mode CF period")
    add_format(p_loc)
    p_loc.set_defaults(func=_cmd_localize)

    p_zeta = sub.add_parser("zeta", help="curve vs torus local zeta factors")
    p_zeta.add_argument("--model", required=True)
    p_zeta.add_argument("--primes", required=True, help='"2..50" or "3,5,7"')
    p_zeta.add_argument("--order", type=int, default=DEFAULT_ORDER, help=f"series order 1..{ORDER_GUARD}")
    p_zeta.add_argument("--mode", choices=("absolute", "signed"), default="absolute")
    p_zeta.add_argument("--period", default=None, help="exploration-mode CF period")
    add_format(p_zeta)
    p_zeta.set_defaults(func=_cmd_zeta)

    p_t1 = sub.add_parser("theorem1", help="random-transform invariance transcript")
    p_t1.add_argument("--model", required=True)
    p_t1.add_argument("--p", type=int, required=True)
    p_t1.add_argument("--trials", type=int, default=20, help=f"1..{TRIALS_GUARD}")
    p_t1.add_argument("--seed", type=int, default=0)
    add_format(p_t1)
    p_t1.set_defaults(func=_cmd_theorem1)

    p_cat = sub.add_parser("catalog", help="built-in CM catalog (verified at load)")
    p_cat.add_argument("--file", default=None, help="external curves.json instead")
    add_format(p_cat)
    p_cat.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, failed = args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_render_csv(payload))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
