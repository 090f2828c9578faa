"""Start one measured child from a small parent and account for it.

``python -S -E launch.py RESULT CPU|- LOG argv...`` forks, execs ``argv`` with
its output appended to LOG, waits with ``os.wait4`` and writes
``wall cpu maxrss_kb exit_code`` to RESULT.

Why a process of its own: Linux carries ``ru_maxrss`` across fork and exec, so
a child forked straight from the harness reports at least the *harness's*
peak RSS - the bug zoo's 36 MB programs read 42 MB whenever the harness had
loaded a few reports.  This parent imports nothing (about 8 MB), which is
below every campaign it starts.  The wall clock starts at the fork, so the
launcher's own start-up is in no number.
"""

import os
import sys
import time


def main(argv) -> int:
    result, cpu, log, *child = argv
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})  # inherited by the child
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(child[0], child)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(result, "w") as fh:
        fh.write(f"{wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss} "
                 f"{os.waitstatus_to_exitcode(status)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
