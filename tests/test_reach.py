"""Every src function is reached by some CLI command, or is listed.

One fresh interpreter runs the fixed command list below in process,
under sys.setprofile, and records the code object of every Python call,
imports included.  Every named function and method compiled from a
module of nclocal must be among them, or in UNREACHED.  That allowlist
may only shrink: a listed name that a command now reaches, or that no
longer exists, fails the check as well, so it leaves the list.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import nclocal

MODEL = "[0,0,0,-1,0]"
NO_CM = "[0,0,0,1,1]"
# every subcommand and both formats; --period on localize and zeta;
# --mode signed; good and bad primes, p = 2 and level n = 3; one
# command line that cli._read_argv leaves to argparse
COMMANDS = [
    ["cf", "(1+sqrt(5))/2"],
    ["cf", "(-7+sqrt(19))/30", "--format", "csv"],
    ["cf", "(1+sqrt(10002200057))/2"],  # D = 100003 * 100019 needs Brent's rho
    ["matrix", "--period", "2,1", "--pow", "5"],
    ["matrix", "--period", "1,2,3", "--format", "csv"],
    ["k0", "--matrix", "[[0,3],[-1,0]]"],
    ["k0", "--matrix", "[[2,1],[1,1]]", "--format", "csv"],
    ["k0", "--matrix", "[[3,5,1],[7,2,4],[6,9,8]]"],
    ["k0", "--matrix", "[[-3,-3],[0,4]]"],  # Z/12 after one gcd step
    ["curve", "--model", MODEL],
    ["curve", "--model", MODEL, "--p", "3", "--n", "3"],
    ["curve", "--model", MODEL, "--p", "2"],
    ["curve", "--model", "[0,0,1,0,0]", "--p", "2", "--n", "3"],
    ["curve", "--model", NO_CM, "--p", "1009", "--format", "csv"],
    ["localize", "--model", MODEL, "--p", "5", "--nmax", "3"],
    ["localize", "--model", MODEL, "--p", "2", "--nmax", "2"],
    ["localize", "--model", MODEL, "--p", "7", "--nmax", "2", "--period", "2,1", "--format", "csv"],
    ["zeta", "--model", MODEL, "--primes", "2..30"],
    # bad primes 2 and 31; above p = 229 baby-step giant-step on this curve
    # without CM, where some primes need point orders on E and its twist
    # (_single_candidate, which no other command reaches)
    ["zeta", "--model", NO_CM, "--primes", "2..300", "--mode", "signed"],
    ["zeta", "--model", MODEL, "--primes", "3,5,7", "--period", "2,1", "--format", "csv"],
    ["theorem1", "--model", MODEL, "--p", "5", "--trials", "3"],
    ["theorem1", "--model", NO_CM, "--p", "1009", "--trials", "2", "--format", "csv"],
    ["catalog"],
    ["catalog", "--format", "csv"],
    # a form that only argparse reads, so that build_parser runs too
    ["curve", f"--model={MODEL}", "--p", "5"],
]

# the functions no command reaches, as "module.qualname"
UNREACHED = {
    # the lazy package namespace, for library users
    "nclocal.__dir__",
    # value-class protocol: hash, repr, refused assignment, copy and pickle
    "nclocal._frozen.Frozen.__hash__",
    "nclocal._frozen.Frozen.__repr__",
    "nclocal._frozen.Frozen.__setattr__",
    "nclocal._frozen.Frozen.__delattr__",
    "nclocal._frozen.Frozen.__reduce__",
    "nclocal.quadratic_cf.QuadraticIrrational.__reduce__",
    "nclocal.quadratic_cf.CFExpansion.__str__",
    "nclocal.elliptic.WeierstrassModel.__str__",
    "nclocal.elliptic.ReductionType.__str__",
    "nclocal.ffield.PrimeField.element_repr",
    "nclocal.ffield.PrimeField.__hash__",
    "nclocal.ffield.PrimeField.__repr__",
    "nclocal.ffield.ExtField.element_repr",
    "nclocal.ffield.ExtField.__eq__",
    "nclocal.ffield.ExtField.__hash__",
    "nclocal.ffield.ExtField.__repr__",
    "nclocal.ffield.FieldElement.__hash__",
    "nclocal.ffield.FieldElement.__repr__",
    # names that bench/spans.py looks up, which tests/test_bench_spans.py
    # checks, so they stay until the benchmark is respanned: the counted
    # FieldElement operators, the epsilon hook, and the TruncatedSeries
    # spans __mul__ and reciprocal
    "nclocal.ffield.FieldElement.__rsub__",
    "nclocal.ffield.FieldElement.__rtruediv__",
    "nclocal.ffield.FieldElement.__pow__",
    "nclocal.ck_k0.epsilon",
    "nclocal.zeta.TruncatedSeries.__mul__",
    "nclocal.zeta.TruncatedSeries.reciprocal",
    # Dirichlet coefficients, whose bad primes wait on minimal models
    "nclocal.zeta._local_dirichlet",
    "nclocal.zeta.dirichlet_coefficients",
}

_PROFILE = """
import contextlib, io, json, sys
seen = set()
sys.setprofile(lambda frame, event, arg: event == "call" and seen.add(frame.f_code))
from nclocal import cli
codes = []
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        codes.append(cli.main(args))
    if codes[-1] not in (0, 1):
        raise SystemExit(f"{args} exited {codes[-1]}: {err.getvalue()}")
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_qualname) for c in seen})))
"""


def _reached() -> set:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROFILE, json.dumps(COMMANDS)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return {(os.path.realpath(path), qualname) for path, qualname in json.loads(proc.stdout)}


def _code_objects(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _code_objects(const)


def _defined() -> dict:
    """(real path, qualname) -> "module.qualname" of every named function;
    class bodies lack CO_OPTIMIZED, and lambdas and comprehensions have
    names in angle brackets."""
    out = {}
    for path in sorted(Path(nclocal.__file__).parent.glob("*.py")):
        module = "nclocal" if path.stem == "__init__" else f"nclocal.{path.stem}"
        for code in _code_objects(compile(path.read_text(), str(path), "exec")):
            if code.co_flags & 0x1 and not code.co_name.startswith("<"):
                out[(os.path.realpath(path), code.co_qualname)] = f"{module}.{code.co_qualname}"
    return out


def test_every_src_function_is_reached_or_listed():
    reached = _reached()
    unreached = {name for key, name in _defined().items() if key not in reached}
    assert sorted(unreached - UNREACHED) == [], "reached by no command: call it from the CLI, or delete it"
    assert sorted(UNREACHED - unreached) == [], "reached now, or gone: take it off UNREACHED"
