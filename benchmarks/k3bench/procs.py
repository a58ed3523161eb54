"""One-shot child processes, timed and measured one at a time."""

import os
import signal
import subprocess
import time


class ChildResult:
    __slots__ = ("wall_s", "code", "rss_mb", "stdout", "stderr")

    def __init__(self, wall_s, code, rss_mb, stdout, stderr):
        self.wall_s = wall_s
        self.code = code
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run(argv, env, cwd, work, timeout):
    """Run argv to completion and return a ChildResult.

    Output goes to files under work (inside the checkout).  wait4
    gives the child's own peak RSS.  A child still running after
    timeout seconds is killed and reaped, and its code is None.
    """
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=cwd)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return ChildResult(wall, code, usage.ru_maxrss / 1024.0, stdout, stderr)
