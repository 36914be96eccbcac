"""Small job launcher that also probes machine speed around every job.

Linux carries a process's resident-set high-water mark across fork and exec,
so a job started straight from the benchmark process would report at least
the benchmark's own size.  This launcher imports little (run it with -S -I);
jobs started from it report their own peak above its floor of about 11 MB.

A shared 2-vCPU host can switch between speeds up to about 2x apart every
few seconds, each vCPU on its own.
So the launcher pins itself, and with it every job, to one CPU, and after
every job (and once at start) times `calibrate`, a fixed slice of
exact-rational work, on that CPU; the benchmark divides each job's time by
the mean of the probes just before and just after it.

Protocol: one JSON request per stdin line
    {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}
and one JSON reply per stdout line
    {"wall_s", "cpu_s", "maxrss_kb", "returncode", "cal_before_s", "cal_after_s"}.
The job runs in this process's working directory.  A job still running after
`timeout` seconds is killed.  The launcher exits when stdin closes; on
SIGTERM it kills and reaps the running job first.
"""

import json
import os
import signal
import sys
import time
from fractions import Fraction

WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def calibrate() -> float:
    """Seconds taken by a fixed piece of Fraction and dict work."""
    start = time.perf_counter()
    table = {}
    for r in range(120):
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(i % 7 + 1, i % 11 + 1)
            table[i, r] = total
    return time.perf_counter() - start


def main() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    child = None
    cal_before = calibrate()

    def kill_child():
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def on_alarm(signum, frame):
        kill_child()

    def on_term(signum, frame):
        kill_child()
        if child is not None:
            try:
                os.waitpid(child, 0)
            except ChildProcessError:
                pass
        sys.exit(1)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], WRITE_FLAGS, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], WRITE_FLAGS, 0o644),
        ]
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        start = time.perf_counter()
        child = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        _, status, usage = os.wait4(child, 0)
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        child = None
        cal_after = calibrate()
        reply = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "returncode": os.waitstatus_to_exitcode(status),
            "cal_before_s": cal_before,
            "cal_after_s": cal_after,
        }
        cal_before = cal_after
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
