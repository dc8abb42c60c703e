"""Command-line interface.

Subcommands mirror the library pipeline: cf, matrix, k0, curve,
localize, zeta, theorem1, catalog.  Output is JSON (default) or CSV; the
JSON is the text of json.dumps(payload, indent=2).  Stdout is written
only after the whole document is rendered, so a failure never leaves
part of one.  Exit codes: 0 on full pass, 1 when any verdict fails (a
good-prime series mismatch or a failed transform trial), 2 on input
error, 141 (128 + SIGPIPE) when the reader of stdout closes it early.

A run loads only what its own subcommand and input need, since each
job is a fresh interpreter.  Each option is declared once, in the table
_COMMANDS.  A canonical command line, the subcommand and then exact
"--name value" pairs, is read from that table by _read_argv without
argparse.  In fresh interpreters on one core of a 2-vCPU VM (Python
3.11.7, medians of 25), `import argparse` takes 2.0 ms, the first
build_parser(argv) 2.2 ms (nine ArgumentParsers, gettext lookups, a
lazy `locale` import and regex compiles) and parse_args 0.2 ms, against
0.01 ms for _read_argv.  Any other command line, help and every usage
error go to argparse, built from the same table with the arguments of
the named subcommand alone, so argparse is the only source of usage,
help and error text.  Each handler imports the modules it runs, and the
json package is imported only for a string that needs escaping, a float
that is not finite, CSV output, the catalog subcommand, or a model or
matrix that is not plain text.
"""

from __future__ import annotations

import io
import os
import sys
from collections.abc import Sequence
from math import isfinite, log10, sqrt
from types import SimpleNamespace

# each handler imports the modules it runs, so that `--help`, `cf`,
# `matrix` and `k0` load no curve code
from ._limits import AP_GUARD, DEFAULT_ORDER, JOIN_BLOCK, MAX_LEVEL

# integers in a --primes range; as a process on one core of a 2-vCPU VM,
# 5 runs each: the 337 primes just below AP_GUARD take 5.6-7.2 s at the
# default order without CM (y^2 = x^3 + x + 1), almost all of it a_p by
# baby-step giant-step, and 0.14-0.17 s on cm-3 and cm-4 (residue symbols)
PRIMES_SPAN_GUARD = 10**4
# largest series order of zeta; --primes 2..10001 at order 12 on y^2 = x^3 - x takes 0.23-0.26 s
ORDER_GUARD = 12
# most theorem1 trials; 100 at p = 999999999989 take 1.73-1.88 s on
# y^2 = x^3 + x + 1, without CM, and 0.10-0.11 s on y^2 = x^3 - x
TRIALS_GUARD = 100
# largest k0 matrix, and most digits of the Hadamard bound on
# |det(I - A^t)|; dense 120 x 120 matrices at 394 digits take 4.0-4.6 s
K0_SIZE_GUARD = 120
K0_DIGITS_GUARD = 400
# most digits of an entry of matrix --pow: Python's int-to-str limit
POW_DIGITS_GUARD = 4300


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


def _check_p(p: int | None) -> None:
    """Bound --p before the model is read: a bad prime needs no a_p, so
    nothing later would stop a p past AP_GUARD."""
    if p is not None and p > AP_GUARD:
        raise ValueError("guard exceeded: p > 10^12")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, verdict_failed)
# ---------------------------------------------------------------------------


class _IntList(list):
    """A list of ints whose text, the ints joined by ", ", is
    text[start:stop], for _render_json to print; json.dumps and the CSV
    writer see a plain list."""

    __slots__ = ("text", "start", "stop")


def _cmd_cf(args) -> tuple:
    from .quadratic_cf import QuadraticIrrational, _display, cf_expand, is_reduced

    x = QuadraticIrrational.parse(args.value)
    try:
        approx = float(x)
    except OverflowError:
        raise ValueError("guard exceeded: value_approx passes the float range") from None
    exp = cf_expand(x)
    purely_periodic = exp.is_purely_periodic
    # the expansion goes as soon as the lists hold its digits, so that no
    # sequence as long as the period exists twice
    preperiod, period = list(exp.preperiod), _IntList(exp.period)
    del exp
    # the period prints from its text in the display, so each digit is
    # converted to text once
    period.text, period.start, period.stop = _display(preperiod, period)
    display = period.text
    payload = {
        "input": str(x),
        "value_approx": approx,
        "preperiod": preperiod,
        "period": period,
        "display": display,
        "purely_periodic": purely_periodic,
        "reduced": is_reduced(x),
    }
    return payload, False


def _power_digits(m: IntMatrix, k: int) -> float:
    """log10(lambda^k), lambda = (t + sqrt(t^2 - 4 det)) / 2 the dominant
    eigenvalue of m, a product of (a, 1; 1, 0) with trace t and det +-1.
    m^k is such a product too: its largest entry is the top-left one, at
    most tr(m^k), and tr(m^k) = lambda^k + (det / lambda)^k is within 1
    of lambda^k."""
    t = m.trace()
    return k * (log10(t) + log10((1 + sqrt(1 - 4 * m.det() / t**2)) / 2))


def _check_pow(m: IntMatrix, k: int) -> None:
    """Bound the digits of m^k before computing it: below the estimate
    POW_DIGITS_GUARD - 1, every entry of m^k has at most POW_DIGITS_GUARD
    digits."""
    if _power_digits(m, k) >= POW_DIGITS_GUARD - 1:
        raise ValueError(f"guard exceeded: entries of the power {k} may pass {POW_DIGITS_GUARD} digits")


def _check_trace(period: list, p: int) -> None:
    """Refuse exploration mode before tr(A^p) is computed when it surely
    passes POW_DIGITS_GUARD digits, so that no output could print it: from
    the estimate POW_DIGITS_GUARD + 1 on, tr(A^p) and the torus coefficient
    |1 - tr(A^p) + p| both pass 10^POW_DIGITS_GUARD."""
    from .quadratic_cf import incidence_matrix

    if _power_digits(incidence_matrix(period), p) >= POW_DIGITS_GUARD + 1:
        raise ValueError(f"guard exceeded: tr(A^{p}) of the period passes {POW_DIGITS_GUARD} digits")


def _cmd_matrix(args) -> tuple:
    from .intmat import mat_pow
    from .quadratic_cf import incidence_matrix

    period = _parse_period(args.period)
    m = incidence_matrix(period)
    payload = {"period": period, "matrix": m.to_rows(), "det": m.det(), "trace": m.trace()}
    _check_pow(m, max(args.pow or 0, 1))  # m itself is printed too
    if args.pow is not None:
        powered = mat_pow(m, args.pow)
        payload["pow"] = args.pow
        payload["matrix_pow"] = powered.to_rows()
        payload["trace_pow"] = powered.trace()
    return payload, False


def _check_k0(m: IntMatrix) -> None:
    """Bound the size of m and the digits of |det(I - m^t)|, whose rows
    are the columns of I - m, before any elimination."""
    if m.rows > K0_SIZE_GUARD:
        raise ValueError(f"guard exceeded: k0 matrix is {m.rows} x {m.rows}, past {K0_SIZE_GUARD} x {K0_SIZE_GUARD}")
    hadamard_sq = 1
    for j in range(m.rows):
        hadamard_sq *= sum(((i == j) - m.at(i, j)) ** 2 for i in range(m.rows))
    if hadamard_sq >= 10 ** (2 * K0_DIGITS_GUARD):
        raise ValueError(f"guard exceeded: the Hadamard bound on |det(I - A^t)| passes {K0_DIGITS_GUARD} digits")


def _cmd_k0(args) -> tuple:
    from .ck_k0 import k0_group
    from .intmat import IntMatrix

    m = IntMatrix.parse(args.matrix)
    if not m.is_square:
        raise ValueError("k0 needs a square matrix")
    _check_k0(m)
    group = k0_group(m)
    payload = {
        "matrix": m.to_rows(),
        "invariant_factors": list(group.invariant_factors),
        "group": str(group),
        "order": group.order,
    }
    return payload, False


def _cmd_curve(args) -> tuple:
    from .elliptic import WeierstrassModel, count_nonsingular, invariants, j_invariant, local_data

    if not 1 <= args.n <= MAX_LEVEL:
        raise ValueError(f"--n must be between 1 and {MAX_LEVEL}")
    _check_p(args.p)
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
            payload["groups"] = [None if g is None else list(g.invariant_factors) for g in local.groups(args.n)]
        else:
            payload["alpha"] = rt.alpha
            payload["nonsingular_counts"] = local.point_counts(args.n)
            payload["nonsingular_count_brute"] = count_nonsingular(local.reduced)
    return payload, False


def _cmd_localize(args) -> tuple:
    from .elliptic import WeierstrassModel
    from .functor import localize

    _check_p(args.p)
    e = WeierstrassModel.parse(args.model)
    period = _parse_period(args.period) if args.period else None
    if period is not None:
        _check_trace(period, args.p)
    res = localize(e, args.p, args.nmax, period=period)
    return res.to_json_dict(), False


def _cmd_zeta(args) -> tuple:
    from .elliptic import WeierstrassModel, invariants
    from .zeta import lemma1_check

    if not 1 <= args.order <= ORDER_GUARD:
        raise ValueError(f"--order must be between 1 and {ORDER_GUARD}")
    e = WeierstrassModel.parse(args.model)
    primes = _parse_primes(args.primes)
    period = _parse_period(args.period) if args.period else None
    if period is not None:
        # tr(A^p) is taken at the good primes only, the primes that do not
        # divide the discriminant, and it grows with p
        disc = invariants(e).disc
        good = [p for p in primes if disc.numerator % p]
        if good:
            _check_trace(period, max(good))
    reports = lemma1_check(e, primes, args.order, period=period, mode=args.mode)
    payload = [r.to_json_dict() for r in reports]
    failed = any(r.good and r.verdict != "match" for r in reports)
    return payload, failed


def _cmd_theorem1(args) -> tuple:
    from .elliptic import WeierstrassModel
    from .functor import theorem1_check

    if not 1 <= args.trials <= TRIALS_GUARD:
        raise ValueError(f"--trials must be between 1 and {TRIALS_GUARD}")
    _check_p(args.p)
    e = WeierstrassModel.parse(args.model)
    report = theorem1_check(e, args.p, args.trials, args.seed)
    return report.to_json_dict(), not report.all_passed


def _cmd_catalog(args) -> tuple:
    from .catalog import load_catalog

    entries = load_catalog(args.file)
    return [entry.to_json_dict() for entry in entries], False


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


# most characters written at once: a write first encodes all of its text
_TEXT_SLICE = 1 << 16


def _plain(text: str) -> bool:
    """Whether json.dumps writes text between quotes as it is: printable
    ASCII without '"' or '\\'."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _quote(text: str) -> str:
    """The text of json.dumps(text)."""
    if _plain(text):
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _scalar(o) -> str:
    """The text of json.dumps(o) for a scalar o: ints, finite floats, true,
    false and null are written here, anything else by json itself."""
    if type(o) is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if type(o) is float and isfinite(o):
        return float.__repr__(o)
    import json

    return json.dumps(o)


def _render_json(o, pieces: list, indent: str = "\n") -> None:
    """Append the text of json.dumps(o, indent=2) to pieces, a few
    strings at a time.

    Containers recurse, and scalars are written by _scalar.  A string
    that needs no escapes is written between quotes as it is; any other
    string goes through json's encoder.  A list of plain ints, or of
    plain strings, is joined JOIN_BLOCK items at a time, and an _IntList
    is printed from its text, _TEXT_SLICE characters at a time.  A plain
    string longer than _TEXT_SLICE is appended itself, not copied.
    `indent` is the newline and indentation of the enclosing level.
    """
    if type(o) is int:
        pieces.append(int.__repr__(o))
    elif isinstance(o, str):
        if len(o) > _TEXT_SLICE and _plain(o):
            pieces += ('"', o, '"')
        else:
            pieces.append(_quote(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            pieces.append("[]")
            return
        inner = indent + "  "
        sep = "," + inner
        pieces.append("[" + inner)
        if type(o) is _IntList:
            text, start, stop = o.text, o.start, o.stop
            # exact: ", " cannot occur inside the text of an int
            while (end := text.find(", ", start + _TEXT_SLICE, stop)) >= 0:
                pieces += (text[start:end].replace(", ", sep), sep)
                start = end + 2
            pieces.append(text[start:stop].replace(", ", sep))
        elif (kind := type(o[0])) in (int, str) and all(type(v) is kind for v in o):
            quoted_sep = f'"{sep}"'
            for i in range(0, len(o), JOIN_BLOCK):
                block = o[i : i + JOIN_BLOCK]
                if kind is int:
                    pieces.append(sep.join(map(int.__repr__, block)))
                # plain strings joined are plain, and the other way round
                elif _plain("".join(block)):
                    pieces.append(f'"{quoted_sep.join(block)}"')
                else:
                    pieces.append(sep.join(map(_quote, block)))
                pieces.append(sep)
            pieces.pop()
        else:
            for i, v in enumerate(o):
                if i:
                    pieces.append(sep)
                _render_json(v, pieces, inner)
        pieces.append(indent + "]")
    elif isinstance(o, dict):
        if not o:
            pieces.append("{}")
            return
        inner = indent + "  "
        pieces.append("{" + inner)
        for i, (k, v) in enumerate(o.items()):
            if i:
                pieces.append("," + inner)
            pieces.append(_quote(k if isinstance(k, str) else _scalar(k)) + ": ")
            _render_json(v, pieces, inner)
        pieces.append(indent + "}")
    else:
        pieces.append(_scalar(o))


def _render_csv(payload) -> str:
    import csv
    import json

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


# The subcommands in the order of the usage text: name -> (help, *options).
# An option is (flag, the keyword arguments of argparse's add_argument); a
# flag without "--" is the subcommand's positional.  Both readers of a
# command line are built from this table: _read_argv for the canonical
# form that every benchmark job uses, and build_parser for the rest.
_FORMAT = ("--format", dict(choices=("json", "csv"), default="json"))
_PERIOD = ("--period", dict(help="exploration-mode CF period"))
_COMMANDS = {
    "cf": (
        "continued fraction of a quadratic irrational",
        ("value", dict(help='e.g. "(1+sqrt(5))/2" or "sqrt(2)"')),
        _FORMAT,
    ),
    "matrix": (
        "incidence matrix of a period",
        ("--period", dict(required=True, help="comma-separated, e.g. 2,1")),
        ("--pow", dict(type=int)),
        _FORMAT,
    ),
    "k0": (
        "K0 invariant factors of a Cuntz-Krieger matrix",
        ("--matrix", dict(required=True, help='e.g. "[[0,3],[-1,0]]"')),
        _FORMAT,
    ),
    "curve": (
        "invariants, reduction type, counts, groups",
        ("--model", dict(required=True, help='"[a1,a2,a3,a4,a6]", rationals as "n/d"')),
        ("--p", dict(type=int)),
        ("--n", dict(type=int, default=1, help=f"levels 1..{MAX_LEVEL}")),
        _FORMAT,
    ),
    "localize": (
        "full localization data at a prime",
        ("--model", dict(required=True)),
        ("--p", dict(type=int, required=True)),
        ("--nmax", dict(type=int, default=2, help=f"levels 1..{MAX_LEVEL}")),
        _PERIOD,
        _FORMAT,
    ),
    "zeta": (
        "curve vs torus local zeta factors",
        ("--model", dict(required=True)),
        ("--primes", dict(required=True, help='"2..50" or "3,5,7"')),
        ("--order", dict(type=int, default=DEFAULT_ORDER, help=f"series order 1..{ORDER_GUARD}")),
        ("--mode", dict(choices=("absolute", "signed"), default="absolute")),
        _PERIOD,
        _FORMAT,
    ),
    "theorem1": (
        "random-transform invariance transcript",
        ("--model", dict(required=True)),
        ("--p", dict(type=int, required=True)),
        ("--trials", dict(type=int, default=20, help=f"1..{TRIALS_GUARD}")),
        ("--seed", dict(type=int, default=0)),
        _FORMAT,
    ),
    "catalog": (
        "built-in CM catalog (verified at load)",
        ("--file", dict(help="external curves.json instead")),
        _FORMAT,
    ),
}


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """What build_parser().parse_args(argv) gives for a canonical argv,
    without argparse; None for any other argv.

    Canonical: the subcommand first, then exact "--name value" pairs
    whose values do not start with "-", each name at most once, and the
    subcommand's positional if it has one.  Values are converted by the
    option's type and checked against its choices, and every required
    option must be given.  Anything else (help, an abbreviation, --x=y,
    --, a value starting with "-", a bad int or choice) is argparse's to
    read or to refuse.  The handler is looked up on each call, as
    build_parser does."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = dict(_COMMANDS[argv[0]][1:])
    positional = next((flag for flag in options if not flag.startswith("-")), None)
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            flag, value = token, next(tokens, "-")
            if value.startswith("-"):
                return None
        else:
            flag, value = positional, token
        # popped, so that a repeated option or positional is refused too
        spec = options.pop(flag, None)
        if spec is None:
            return None
        if (kind := spec.get("type")) is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[flag.lstrip("-")] = value
    for flag, spec in options.items():
        if spec.get("required") or flag == positional:
            return None
        values[flag.lstrip("-")] = spec.get("default")
    return SimpleNamespace(command=argv[0], func=globals()[f"_cmd_{argv[0]}"], **values)


def build_parser(argv: Sequence[str] | None = None):
    """The argparse parser of every subcommand, or, given the argv it will
    parse, one in which only the subcommand that argv names has its
    arguments.  Every subcommand is registered either way, so usage, help
    and error texts are the same.  The top-level parser takes no option
    with a value, so the first token that is not an option names the
    subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="nclocal",
        description="Exact-arithmetic localization of CM curves into Cuntz-Krieger data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = None if argv is None else next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (help_text, *options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # looked up now, not when the table is made: tests patch cli._cmd_*
        p.set_defaults(func=globals()[f"_cmd_{name}"])
        if argv is None or name == named:
            for flag, spec in options:
                p.add_argument(flag, **spec)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or build_parser(argv).parse_args(argv)
    try:
        payload, failed = args.func(args)
        if args.format == "json":
            pieces: list = []
            _render_json(payload, pieces)
        else:
            pieces = [_render_csv(payload)]
        pieces.append("\n")
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        # the stdout of the moment: a caller may have redirected it
        write = sys.stdout.write
        for piece in pieces:
            if len(piece) > _TEXT_SLICE:
                for i in range(0, len(piece), _TEXT_SLICE):
                    write(piece[i : i + _TEXT_SLICE])
            else:
                write(piece)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # the closed pipe raises no second time (see the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
