"""Compare the CLI output of two checkouts on the benchmark's jobs.

    python tests/compare_outputs.py PARENT CHANGE --seeds 301..310
    python tests/compare_outputs.py PARENT CHANGE --workloads ck_k0
    python tests/compare_outputs.py PARENT CHANGE --reach

Builds every batch and edge job of the four workloads, or of those that
--workloads names, at each seed with bench/workloads.py of the checkout
that holds this script (read only), runs each job as `python -m
nclocal.cli` from PARENT/src and from CHANGE/src in the benchmark's
environment, and prints every job whose exit code, stdout or stderr
differ.  Exits 1 when any job differs.  With --reach the jobs are the
commands of tests/test_reach.py instead: bad primes, p = 2, --mode
signed, --period and CSV output, which no benchmark job runs; then the
PARSER_CASES below, command lines and inputs that the parser and the
readers of models and matrices must treat as before.

A manual tool, not a test: at ten seeds it runs 280 jobs on each
side, one at a time, and takes a few minutes.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave nothing behind in bench/

import argparse  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

FIELDS = ("exit code", "stdout", "stderr")


def parse_seeds(text: str) -> list:
    """Seeds of "lo..hi" or "a,b,...". """
    lo, sep, hi = text.partition("..")
    if sep:
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_job(checkout: Path, args: tuple) -> tuple:
    """(exit code, stdout, stderr) of one job, with the checkout's path
    masked so that tracebacks of the two sides compare equal.  No timeout:
    the CLI's own guards bound every benchmark job."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "nclocal.cli", *args], capture_output=True, env=env, cwd=cwd)
    mask = str(checkout).encode()
    out, err = (s.replace(mask, b"<checkout>") for s in (proc.stdout, proc.stderr))
    return proc.returncode, out, err


def benchmark_jobs(names: list, seeds: list):
    """(label, args) of every batch and edge job of the named workloads at
    each seed."""
    for name in names:
        for seed in seeds:
            workload = workloads.build(name, seed)
            for kind, jobs in (("batch", workload.batch), ("edge", workload.edges)):
                for job in jobs:
                    yield f"{name} seed {seed} {kind}: {str(job)[:200]}", job.args


MODEL = "[0,0,0,-1,0]"
# usage errors, help, the command lines that cli._read_argv leaves to
# argparse and the texts that the direct readers of plain models and
# matrices leave to JSON; their exit codes and stderr count too
PARSER_CASES = [
    ["--bogus", "zeta", "--model", MODEL, "--primes", "2..30"],
    ["zeta", "--model", MODEL, "--primes", "2..30", "extra"],
    ["cf", "sqrt(2)", "extra"],
    ["frobnicate", "--model", MODEL],
    [],
    ["--help"],
    ["zeta", "--help"],
    ["k0"],
    ["zeta", "--model", MODEL, "--primes", "2..30", "--ord", "4"],
    ["zeta", "--model", MODEL, "--primes", "2..30", "--order", "4", "--period"],
    ["curve", f"--model={MODEL}", "--p", "5"],
    ["curve", "--model", '["0","0","0","-1","0"]', "--p", "5"],
    ["curve", "--model", '["1/2",0,0,"-3/4",1]', "--p", "7"],
    ["curve", "--model", "[0.0,0,0,-1e0,0]", "--p", "5"],
    ["curve", "--model", "[0,0,0,-0.5,0]", "--p", "5"],
    ["curve", "--model", "[1/2, 0, 0, -3/4, 1]", "--p", "7"],
    ["curve", "--model", " [ 0 , 0 , 0 , -1 , 0 ] ", "--p", "5"],
    ["curve", "--model", "[0,0,0,-01,0]", "--p", "5"],
    ["curve", "--model", "[true,0,0,0,0]"],
    ["curve", "--model", "[0,0,0,1/0,0]"],
    ["curve", "--model", "[0,0,0,-1]"],
    ["curve", "--model", ""],
    ["k0", "--matrix", "[[0, 3], [-1, 0]]"],
    ["k0", "--matrix", " [ [1,1] ,\n [1,0] ] "],
    ["k0", "--matrix", "[[1,2],[3]]"],
    ["k0", "--matrix", "[[0,3],[-1,0.0]]"],
    ["k0", "--matrix", "[[01,1],[1,0]]"],
    ["k0", "--matrix", "[]"],
    ["k0", "--matrix", ""],
    # the one pattern of QuadraticIrrational.parse, the trial division and
    # perfect-square test behind its factoring, and the stepping of cf_expand
    ["cf", "sqrt(13)/2"],
    ["cf", "( 1 + sqrt( 13 ) ) / 2"],
    ["cf", "(1+sqrt(13)/2"],
    ["cf", "1+sqrt(13))/2"],
    ["cf", "((1+sqrt(13)))/2"],
    # D = 14543 * 41257 * 600000553, and D = 5 * 10009^2
    ["cf", "(1+sqrt(360000662400304703))/2"],
    ["cf", "sqrt(500900405)"],
    # a period with no centre of symmetry, one with two, and the state cap
    ["cf", "(-3+sqrt(31))/7"],
    ["cf", "(-3+sqrt(37))/5"],
    ["cf", "(1+sqrt(1234567890123457))/2"],
    # localize hints at a clearing transform for a non-integral model only
    ["localize", "--model", MODEL, "--p", "4"],
    ["localize", "--model", "[1/5,0,0,-1,0]", "--p", "5"],
    # forms that cli._read_argv leaves to argparse
    ["curve", "--model", MODEL, "--p", "5", "--p", "7"],
    ["curve", "--model", MODEL, "--", "--p", "5"],
    ["theorem1", "--model", MODEL, "--p", "5", "--trials", "2", "--seed", "-3"],
    ["curve", "--model", MODEL, "--p", "5", "-h"],
    ["curve", "--model", MODEL, "--p", "five"],
    ["k0", "--matrix", "[[0,3],[-1,0]]", "--format", "xml"],
    ["zeta", "--model", MODEL, "--primes", "2..30", "--mode", "both"],
    ["cf"],
]


def reach_jobs():
    """(label, args) of the commands of tests/test_reach.py, which import
    nclocal from the checkout that holds this script, then of
    PARSER_CASES."""
    sys.path.insert(0, str(ROOT / "src"))
    import test_reach

    for args in test_reach.COMMANDS:
        yield f"reach: {' '.join(args)[:200]}", tuple(args)
    for args in PARSER_CASES:
        yield f"parser: {' '.join(args)[:200]}", tuple(args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose output is the reference")
    parser.add_argument("change", type=Path, help="checkout to compare with it")
    parser.add_argument("--seeds", default="301..310", help='"lo..hi" or "a,b,..."')
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS), help='"NAME[,NAME]"')
    parser.add_argument(
        "--reach", action="store_true", help="compare the commands of tests/test_reach.py and PARSER_CASES instead"
    )
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}: choose from {', '.join(workloads.WORKLOADS)}")
    sides = [args.parent.resolve(), args.change.resolve()]
    for side in sides:
        if not (side / "src" / "nclocal" / "cli.py").is_file():
            parser.error(f"{side} is not an nclocal checkout")

    total, differ = 0, 0
    for label, job_args in reach_jobs() if args.reach else benchmark_jobs(names, parse_seeds(args.seeds)):
        parent, change = (run_job(side, job_args) for side in sides)
        total += 1
        diff = [f for f, a, b in zip(FIELDS, parent, change) if a != b]
        if diff:
            differ += 1
            print(f"DIFFERS ({', '.join(diff)}): {label}", flush=True)
    print(f"{total - differ} of {total} jobs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
