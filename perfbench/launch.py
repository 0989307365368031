"""Run one job and report its exit code, wall time, CPU time and peak RSS.

Usage::

    python3 perfbench/launch.py REPORT PROGRAM [ARG...]

The benchmark starts every job through this small process instead of
starting it directly.  A process forked from a larger image keeps that
image's resident size as its peak RSS, even after it execs another
program, so a job started by the benchmark itself would report the
benchmark's size whenever that is the larger.  Spawned from this
process, which imports nothing but the standard library's basics, the
job's peak RSS is its own.

The job inherits this process's standard streams, working directory
and environment.  REPORT receives one JSON object with ``code`` (the
job's exit code, negative for a signal), ``wall_s``, ``cpu_s`` (user
plus system, with every descendant the job waited for) and ``rss_mb``
(the largest of those processes).
"""

import json
import os
import sys
import time


def main(argv) -> int:
    report, command = argv[0], argv[1:]
    started = time.perf_counter()
    pid = os.posix_spawnp(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - started
    partial = report + ".part"
    with open(partial, "w") as handle:
        json.dump({
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }, handle)
    os.replace(partial, report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
