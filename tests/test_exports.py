import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nclocal

MODULES = sorted(f"nclocal.{m.name}" for m in pkgutil.iter_modules(nclocal.__path__))


def test_every_module_is_listed():
    assert {"nclocal.elliptic", "nclocal.ffield", "nclocal.zeta", "nclocal.ck_k0"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    # a name deleted from a module but left in its __all__ breaks
    # `from module import *`
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statement_in_the_library():
    # python -O strips assert statements, so identity checks must raise,
    # and they raise RuntimeError, not a bare AssertionError
    found = []
    for path in sorted(Path(nclocal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Raise) and node.exc and _raises_assertion_error(node))
        ]
    assert found == []


def test_no_module_imports_the_tests():
    # oracles move from src to tests, never back: src imports no test module
    found = []
    for path in sorted(Path(nclocal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in ("tests", "conftest") or name.split(".")[-1].endswith("_oracle")
            ]
    assert found == []


# private names that one src module may import from another
PRIVATE_IMPORTS = {("cli.py", "quadratic_cf", "_display")}


def test_no_module_imports_a_private_name_of_another():
    # a private helper is its module's own; another module that needs it
    # calls the public name that owns the work
    found = []
    for path in sorted(Path(nclocal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("nclocal")):
                module = (node.module or "").removeprefix("nclocal").lstrip(".")
                found += [
                    (path.name, module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and (path.name, module, alias.name) not in PRIVATE_IMPORTS
                ]
    assert found == []


# the start-up cost of every CLI run: dataclasses alone pulls in inspect,
# ast, dis and tokenize
SLOW_IMPORTS = ("dataclasses", "typing", "inspect")


def test_no_module_imports_dataclasses_or_typing():
    found = []
    for path in sorted(Path(nclocal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] in SLOW_IMPORTS]
    assert found == []


def _loaded_after(code: str) -> set:
    """The modules loaded after `code` runs in a fresh interpreter.  -S:
    the site hooks of an installation may import typing themselves."""
    code += "\nimport sys; print(' '.join(sys.modules), file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


CURVE_MODULES = {"nclocal.elliptic", "nclocal.ffield", "nclocal.functor", "nclocal.zeta"}


def test_cli_import_loads_no_slow_module():
    # each subcommand imports its own modules when it runs
    unwanted = CURVE_MODULES | {"nclocal.ck_k0", "nclocal.quadratic_cf", "nclocal.catalog", "csv", "fractions", "json"}
    loaded = _loaded_after("import nclocal.cli; nclocal.cli.build_parser()")
    assert loaded & (unwanted | set(SLOW_IMPORTS)) == set()


SUBCOMMANDS = ("cf", "matrix", "k0", "curve", "localize", "zeta", "theorem1", "catalog")


@pytest.mark.parametrize("args", [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS])
def test_help_loads_no_json_and_no_math(args):
    code = f"import nclocal.cli\ntry:\n    nclocal.cli.main({args!r})\nexcept SystemExit as stop:\n    assert stop.code == 0"
    loaded = _loaded_after(code)
    assert loaded & (CURVE_MODULES | {"nclocal.ck_k0", "nclocal.quadratic_cf", "json", "fractions"}) == set()


MODEL = "[0,0,0,-1,0]"
# one well-formed command line of each subcommand, in the canonical form
# that every benchmark job uses
WELL_FORMED = [
    ["cf", "sqrt(7)"],
    ["matrix", "--period", "2,1", "--pow", "5"],
    ["k0", "--matrix", "[[0,3],[-1,0]]"],
    ["curve", "--model", MODEL, "--p", "5", "--n", "2"],
    ["localize", "--model", MODEL, "--p", "5", "--nmax", "2", "--format", "csv"],
    ["zeta", "--model", MODEL, "--primes", "2..30", "--order", "4", "--mode", "signed"],
    ["theorem1", "--model", MODEL, "--p", "5", "--trials", "2", "--seed", "7"],
    ["catalog"],
]
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("args", WELL_FORMED)
def test_well_formed_runs_load_no_argparse(args):
    # cli._read_argv reads them from the option table
    assert [a[0] for a in WELL_FORMED] == list(SUBCOMMANDS)
    loaded = _loaded_after(f"import nclocal.cli; assert nclocal.cli.main({args!r}) == 0")
    assert loaded & ARGPARSE == set()


@pytest.mark.parametrize(
    "args, code", [(["--help"], 0), (["zeta", "--help"], 0), (["zeta", "--model", MODEL, "--primes"], 2)]
)
def test_help_and_usage_errors_still_use_argparse(args, code):
    program = (
        f"import nclocal.cli\ntry:\n    nclocal.cli.main({args!r})\n"
        f"except SystemExit as stop:\n    assert stop.code == {code}\nelse:\n    raise AssertionError('no exit')"
    )
    assert "argparse" in _loaded_after(program)


def test_matrix_compiles_no_pattern():
    # the patterns of QuadraticIrrational.parse are compiled on its first
    # call: matrix imports quadratic_cf for incidence_matrix alone
    loaded = _loaded_after("import nclocal.cli; assert nclocal.cli.main(['matrix', '--period', '2,1']) == 0")
    assert "nclocal.quadratic_cf" in loaded and "re" not in loaded


@pytest.mark.parametrize(
    "args",
    [["cf", "sqrt(7)"], ["matrix", "--period", "2,1", "--pow", "5"], ["k0", "--matrix", "[[0,3],[-1,0]]"]],
)
def test_ck_subcommands_load_no_curve_code(args):
    # a quadratic irrational is an integer triple, and K0 is integer
    # elimination: no Fraction, and no decimal behind it.  Plain input is
    # read, and the output written, without json
    loaded = _loaded_after(f"import nclocal.cli; assert nclocal.cli.main({args!r}) == 0")
    assert loaded & (CURVE_MODULES | {"fractions", "decimal", "json"}) == set()


@pytest.mark.parametrize(
    "args",
    [
        ["curve", "--model", "[0,0,0,-1,0]", "--p", "5", "--n", "2"],
        ["localize", "--model", "[0,0,0,-1,0]", "--p", "5", "--nmax", "2"],
        ["theorem1", "--model", "[0,0,0,-1,0]", "--p", "5", "--trials", "2"],
        ["localize", "--model", "[0, 0, 0, -1/4, 0]", "--p", "5", "--nmax", "2"],
    ],
)
def test_curve_subcommands_load_no_zeta(args):
    # local_data sits beside LocalData in elliptic; only zeta needs the
    # series, and only a --period the continued fractions.  Plain input
    # is read, and the output written, without json
    loaded = _loaded_after(f"import nclocal.cli; assert nclocal.cli.main({args!r}) == 0")
    assert "nclocal.elliptic" in loaded
    assert loaded & {"nclocal.zeta", "nclocal.quadratic_cf", "json"} == set()


@pytest.mark.parametrize("period", [None, "2,1"])
def test_zeta_loads_continued_fractions_only_for_a_period(period):
    # the incidence matrix of a period is exploration mode's alone
    args = ["zeta", "--model", "[0,0,0,-1,0]", "--primes", "2..30"] + (["--period", period] if period else [])
    # exploration mode makes no pass guarantee, so its exit code may be 1
    loaded = _loaded_after(f"import nclocal.cli; assert nclocal.cli.main({args!r}) in (0, 1)")
    assert "nclocal.zeta" in loaded and ("nclocal.quadratic_cf" in loaded) == (period is not None)
    assert "json" not in loaded


def test_localize_loads_continued_fractions_for_a_period():
    args = ["localize", "--model", "[0,0,0,-1,0]", "--p", "5", "--period", "2,1"]
    loaded = _loaded_after(f"import nclocal.cli; assert nclocal.cli.main({args!r}) == 0")
    assert "nclocal.quadratic_cf" in loaded


def test_every_public_name_resolves_to_its_module_object():
    # nclocal loads its names on first use; each must be the object its
    # module defines, not a copy
    for name in nclocal.__all__:
        value = getattr(nclocal, name)
        home = importlib.import_module(value.__module__)
        assert home is not nclocal and getattr(home, name) is value, name
    assert set(nclocal.__all__) <= set(dir(nclocal))
    with pytest.raises(AttributeError):
        nclocal.no_such_name


def test_no_module_calls_object_setattr():
    # Frozen.__init__ stores the fields a value class names in __slots__
    found = []
    for path in sorted(Path(nclocal.__file__).parent.glob("*.py")):
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ]
    assert found == []
