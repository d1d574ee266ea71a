"""Start one command, wait for it and write its times and peak RSS.

    python -I -S perfbench/launch.py REPORT PROGRAM ARG...

The harness starts every measured process through this small interpreter.
On Linux a child's ru_maxrss is never below the peak RSS of the process
that started it: the child is started by vfork, and exec keeps the
high-water mark of the memory it leaves.  The harness itself is larger
than an slcob process that only imports its CLI; this launcher is not, so
the figure it reads with wait4 is the command's own.

REPORT receives one line: spawn time and exit time (CLOCK_MONOTONIC, ns),
peak RSS (KiB) and exit code.  The command inherits the launcher's working
directory, environment and standard streams.
"""

import os
import sys
import time


def main():
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.monotonic_ns()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic_ns()
    rc = os.waitstatus_to_exitcode(status)
    with open(report, "w") as fh:
        fh.write("%d %d %d %d\n" % (start, end, usage.ru_maxrss, rc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
