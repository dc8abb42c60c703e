"""Fork, pin, time and reap benchmark jobs on behalf of run.py.

A child's ru_maxrss starts from the resident set of the process that
forked it (Linux carries the old memory's high-water mark across exec),
so jobs forked straight from the harness would report the harness's own
memory whenever it exceeds theirs.  This helper stays near 10 MB, below
any nclocal process, so the peak RSS that wait4 reports is the job's own.

Protocol: one JSON request per stdin line, {argv, env, cwd, cpu,
deadline, stdout, stderr}, with stdout and stderr naming files to write;
one JSON reply per stdout line, {wall, cpu, maxrss_kb, returncode},
returncode null when the deadline killed the job.
"""

import json
import os
import select
import signal
import sys
import time


def run(req: dict) -> dict:
    out_fd = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    err_fd = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.sched_setaffinity(0, {req["cpu"]})
            null = os.open(os.devnull, os.O_RDONLY)
            os.dup2(null, 0)
            os.dup2(out_fd, 1)
            os.dup2(err_fd, 2)
            os.chdir(req["cwd"])
            os.execve(req["argv"][0], req["argv"], req["env"])
        finally:
            os._exit(127)
    os.close(out_fd)
    os.close(err_fd)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], req["deadline"])
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    finally:
        os.close(pidfd)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "returncode": os.waitstatus_to_exitcode(status) if ready else None,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
