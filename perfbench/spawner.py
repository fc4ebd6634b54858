"""Launch and time the benchmark's children, one at a time.

run.py starts this process once and sends it one JSON request per line on
stdin: {"argv", "env", "out", "err", "timeout"}.  For each it spawns the
child, waits with ``wait4``, and answers on stdout with one JSON line:
{"started", "ended", "status", "cpu_s", "maxrss_kb"}, or {"timeout": true}
after killing a child that ran past its timeout.

It exists so that the children's max-RSS is their own.  Linux carries the
spawning process's peak RSS over into a vfork-spawned child's ``ru_maxrss``,
so children spawned by the driver, which holds the expected values and
parsed outputs, would report the driver's peak.  This process stays small.
"""

import json
import os
import signal
import sys
import time


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def run_child(req):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    started = time.perf_counter()
    pid = os.posix_spawn(
        req["argv"][0], req["argv"], req["env"],
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, req["out"], flags, 0o644),
                      (os.POSIX_SPAWN_OPEN, 2, req["err"], flags, 0o644)],
    )
    reaped = False
    try:
        signal.alarm(max(1, int(req["timeout"])))
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    except _Timeout:
        return {"timeout": True}
    finally:
        signal.alarm(0)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return {
        "started": started,
        "ended": time.perf_counter(),
        "status": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_child(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
