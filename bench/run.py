"""nclocal benchmark: seeded CLI workloads, checked outputs, JSON metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload zeta_sweep --seed 1 --seconds 26 --trace 0

With --trace 0 it spawns `python -m nclocal.cli` jobs one at a time (a
closed loop with one client), repeats the workload's batch until
--seconds have passed, and reports the end-to-end metrics from each
job's median round, each round scaled to a reference host speed.  With
--trace 1 it runs the batch in process under the per-layer wrappers of
spans.py instead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See NOTES.md.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# README: "every operation finishes in seconds"; a job gets five
JOB_DEADLINE_S = 5.0
SETUP_ARGS = ("--help",)  # spawn, import nclocal.cli, build the parser; no math
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_ROUND = 1
GAUGE_MODULUS = 10**40 + 121
# a fixed reference time for the gauge below, near its typical time on the
# 2-core Xeon host the bounds were set on; each job's times are reported
# as if the job had run at this speed
REFERENCE_GAUGE_S = 0.002
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


@dataclass
class Finished:
    wall: float
    cpu: float
    rss_mb: float
    returncode: object  # int, or None when the deadline killed the job
    stdout: bytes
    stderr: bytes
    gauge_s: float  # the gauge's median time on the job's CPU around the job

    @property
    def speed(self) -> float:
        """Factor that scales the job's times to the reference speed."""
        return REFERENCE_GAUGE_S / self.gauge_s


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _gauge() -> float:
    """Time of one run of a fixed piece of object-heavy pure Python, like
    the program's own work: tuple arithmetic mod p, a dict, bigint
    squaring, Fractions and a sort.  About 2 ms on a 2-core Xeon host."""
    t0 = time.perf_counter()
    for _ in range(3):
        x, table = (1, 2), {}
        for i in range(700):
            a, b = x
            x = ((a * b + 3 * i) % 10007, (a + 5 * b + 1) % 10007)
            table[x] = table.get(x, 0) + 1
        big = 7
        for _ in range(120):
            big = big * big % GAUGE_MODULUS
        f = Fraction(0)
        for i in range(1, 25):
            f += Fraction(i, i * i + 1)
        sorted(table, key=lambda k: k[1])
    return time.perf_counter() - t0


def gauge_on(cpu: int, runs: int) -> list:
    """Times of `runs` runs of the gauge, pinned to `cpu`."""
    try:
        os.sched_setaffinity(0, {cpu})
        return [_gauge() for _ in range(runs)]
    finally:
        os.sched_setaffinity(0, ALLOWED_CPUS)


def quietest_cpu() -> int:
    """The allowed CPU on which the gauge runs fastest right now.

    The host's cores are shared with other tenants, and a core's speed
    for this process changes by up to 50% from one second to the next as
    they come and go.  Pinning each job to the quietest core measures the
    program more than its neighbours.
    """
    best = {cpu: min(gauge_on(cpu, 2)) for cpu in ALLOWED_CPUS}
    return min(best, key=best.get)


class Spawner:
    """Runs `python -m nclocal.cli *args` jobs one at a time through
    spawner.py, which forks each job pinned to the quietest CPU and reaps
    it with wait4 for the job's own CPU time and peak RSS.  Job output
    goes through files in a temporary directory inside the checkout.

    The gauge runs three times on the job's CPU just before the job and
    three times just after it; the median of the six is the host's speed
    for that job."""

    def __init__(self, env: dict):
        self.env = env
        self.tmp = tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT)
        self.out = Path(self.tmp.name, "stdout")
        self.err = Path(self.tmp.name, "stderr")
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_DEADLINE_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.tmp.cleanup()

    def run(self, args) -> Finished:
        cpu = quietest_cpu()
        before = gauge_on(cpu, 3)
        request = {
            "argv": [sys.executable, "-m", "nclocal.cli", *args],
            "env": self.env,
            "cwd": str(ROOT),
            "cpu": cpu,
            "deadline": JOB_DEADLINE_S,
            "stdout": str(self.out),
            "stderr": str(self.err),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job spawner exited")
        reply = json.loads(line)
        return Finished(
            wall=reply["wall"],
            cpu=reply["cpu"],
            rss_mb=reply["maxrss_kb"] / 1024,  # KiB on Linux
            returncode=reply["returncode"],
            stdout=self.out.read_bytes(),
            stderr=self.err.read_bytes(),
            gauge_s=statistics.median(before + gauge_on(cpu, 3)),
        )


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def report_failures(jobs, statuses) -> None:
    for job, (status, reason) in zip(jobs, statuses):
        if status != verify.PASS:
            print(f"FAIL [{reason}] {job}")


def measure(load: workloads.Workload, seconds: float) -> tuple:
    """End-to-end metrics over as many rounds of the batch as fit in
    `seconds`, then one pass over the edge jobs.

    Other tenants slow each core of this host by up to 50%, in spells
    of about a second that come and go all through a run and in phases
    of minutes, as long as whole runs.  Each run of a job is therefore
    first scaled by REFERENCE_GAUGE_S over the gauge's time around it
    (Finished.speed), so that a spell that slows the gauge as much as
    the job does not show as a slower program; a job's time is then its
    median scaled round.
    """
    with Spawner(child_env()) as spawner:
        return _measure(spawner, load, seconds)


def _measure(spawner: Spawner, load: workloads.Workload, seconds: float) -> tuple:
    spawn = spawner.run
    spawn(SETUP_ARGS)  # compiles the package's bytecode, untimed
    setup = [spawn(SETUP_ARGS) for _ in range(SETUP_PROBES_FIRST)]
    gauges = []
    n = len(load.batch)
    statuses, digests = [None] * n, [None] * n
    walls, cpus, rss = ([[] for _ in range(n)] for _ in range(3))
    round_p50 = []  # each round's median job time
    start = time.perf_counter()
    rounds = 0
    # stop at the round end nearest to `seconds`
    while rounds == 0 or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        for i, job in enumerate(load.batch):
            done = spawn(job.args)
            walls[i].append(done.wall * done.speed)
            cpus[i].append(done.cpu * done.speed)
            rss[i].append(done.rss_mb)
            gauges.append(done.gauge_s)
            # outside the timed window: check the first round's outputs,
            # and require later rounds to reproduce them byte for byte
            digest = (done.returncode, hashlib.sha256(done.stdout).hexdigest())
            if digests[i] is None:
                digests[i] = digest
                statuses[i] = verify.classify(job, done.returncode, done.stdout, done.stderr)
            elif digest != digests[i] and statuses[i][0] == verify.PASS:
                statuses[i] = (verify.ERROR, "output differs between rounds")
        rounds += 1
        round_p50.append(statistics.median(w[-1] for w in walls))
        print(f"round {rounds} (scaled): wall {sum(w[-1] for w in walls):.3f} s, cpu {sum(c[-1] for c in cpus):.3f} s")
        setup += [spawn(SETUP_ARGS) for _ in range(SETUP_PROBES_PER_ROUND)]
    print(
        f"host speed: gauge {statistics.median(gauges) * 1e3:.3f} ms per job (median),"
        f" {min(gauges) * 1e3:.3f} to {max(gauges) * 1e3:.3f} ms"
    )
    edge_statuses = []
    for job in load.edges:
        done = spawn(job.args)
        edge_statuses.append(verify.classify(job, done.returncode, done.stdout, done.stderr))
    jobs = load.batch + load.edges
    all_statuses = statuses + edge_statuses
    report_failures(jobs, all_statuses)
    failed = sum(s != verify.PASS for s, _ in all_statuses)
    metrics = {
        "wall_s": (sum(statistics.median(w) for w in walls), "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus), "s"),
        "job_p50_s": (statistics.fmean(round_p50), "s"),
        "peak_rss_mb": (max(statistics.median(r) for r in rss), "MB"),
        "setup_s": (statistics.median(probe.wall * probe.speed for probe in setup), "s"),
        "error_rate": (failed / len(jobs), "fraction"),
    }
    correct = all(s != verify.WRONG for s, _ in all_statuses)
    return correct, len(jobs), failed, metrics


def traced(load: workloads.Workload) -> tuple:
    import spans

    sys.path.insert(0, str(SRC))
    try:
        result = spans.run(load.batch, lambda: os.sched_setaffinity(0, {quietest_cpu()}))
    finally:
        os.sched_setaffinity(0, ALLOWED_CPUS)
    statuses = [
        verify.classify(job, rc, out, err) if same else (verify.ERROR, "output differs under tracing")
        for job, (rc, out, err), same in zip(load.batch, result.outputs, result.reproduced)
    ]
    report_failures(load.batch, statuses)
    failed = sum(s != verify.PASS for s, _ in statuses)
    correct = all(s != verify.WRONG for s, _ in statuses)
    return correct, len(load.batch), failed, result.metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nclocal" / "cli.py").is_file():
        print(f"error: no nclocal sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.seed)))
    load = workloads.build(args.workload, args.seed)
    if args.trace:
        correct, attempted, failed, metrics = traced(load)
    else:
        correct, attempted, failed, metrics = measure(load, args.seconds)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
