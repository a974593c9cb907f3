"""Start the benchmark's child processes and measure each one.

    python3 perfbench/spawn.py

Reads one JSON request per line on stdin,
``{"argv", "cwd", "env", "stdout", "stderr", "timeout"}``, runs it to the
end and writes one JSON reply per line on stdout,
``{"wall", "cpu", "maxrss_kb", "exit"}``.  It exits when stdin closes.

Children are forked from this small process rather than from the harness
because Linux starts a child's peak RSS (``ru_maxrss``) at the size of the
process that forked it, and the harness is larger than an acx invocation.
Keep its imports few for the same reason.
"""

import json
import os
import signal
import sys
import time


def run(req):
    out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            null = os.open(os.devnull, os.O_RDONLY)
            os.dup2(null, 0)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.chdir(req["cwd"])
            os.execve(req["argv"][0], req["argv"], req["env"])
        finally:
            os._exit(127)
    os.close(out)
    os.close(err)

    def kill(*_):  # a child that overruns its time is killed; wait4 returns
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit": os.waitstatus_to_exitcode(status),
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
