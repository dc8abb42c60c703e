"""The benchmark's traced pass still reproduces CLI output.

bench/spans.py wraps nclocal functions by name, reads the model that
``trace_of_frobenius`` receives and counts field and matrix methods by
name, so a refactor of those names or of the model's values can make the
traced passes fail.  The jobs below reach every hooked function and every
counted class at small sizes.  bench/ is imported read only.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODEL = "[0,0,0,-1,0]"
JOBS = [
    ("cf", "sqrt(7)"),
    ("k0", "--matrix", "[[0,3],[-1,0]]"),
    ("matrix", "--period", "2,1", "--pow", "5"),
    ("zeta", "--model", MODEL, "--primes", "2..60"),
    ("curve", "--model", MODEL, "--p", "7", "--n", "2"),
    ("localize", "--model", MODEL, "--p", "7", "--nmax", "3"),
    ("theorem1", "--model", MODEL, "--p", "1009", "--trials", "3"),
    ("curve", "--model", MODEL, "--p", "1009"),
    ("zeta", "--model", "[0,0,0,1,1]", "--primes", "1009"),
]


@pytest.fixture(scope="module")
def spans():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave nothing behind in bench/
    sys.path.insert(0, str(BENCH))
    try:
        import spans

        yield spans
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


def test_hooked_and_counted_names_exist(spans):
    mods = spans._modules()
    for label in spans.HOOKS:
        layer, name = label.split(".")
        assert callable(getattr(mods[layer], name)), label
    for layer, cls_name, names in spans.COUNTED_METHODS:
        cls = getattr(mods[layer], cls_name)
        assert all(name in cls.__dict__ for name in names), cls_name


def test_traced_passes_reproduce_every_job(spans):
    result = spans.run([SimpleNamespace(args=args) for args in JOBS], lambda: None)
    assert [rc for rc, _, _ in result.outputs] == [0] * len(JOBS)
    assert result.reproduced == [True] * len(JOBS)
