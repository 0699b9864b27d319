"""Child-process launcher for the benchmark.

run.py starts this script first, before it imports the package or builds
any input, and has it start every CLI child. The reason is memory: on
Linux a child's peak RSS (`ru_maxrss`) includes the peak RSS of the
process that spawned it, as it stood at exec. Spawned from this small
process, a child reports its own peak, not the benchmark's.

Protocol, one JSON object per line. Request on stdin:

    {"argv": [...], "stdout": FILE, "stderr": FILE, "timeout": SECONDS}

Replies on stdout, first once the child has started:

    {"pid": P}

then once it has exited:

    {"returncode": N, "wall_s": S, "cpu_s": C, "maxrss_kb": K, "launcher_hwm_kb": H}

`wall_s` runs from the spawn to the child's exit and `cpu_s` is the
child's user plus system time; `maxrss_kb` is the child's peak RSS and
`launcher_hwm_kb` this process's own. A child that outlives its timeout
is killed and reports a negative return code. The launcher exits at the
end of its input.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from time import perf_counter


def _hwm_kb() -> int:
    """This process's own peak RSS, not counting its parent's."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _spawn(req: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
    _reply({"pid": pid})
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(req["timeout"]))
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    signal.alarm(0)
    return {
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "launcher_hwm_kb": _hwm_kb(),
    }


def main() -> int:
    for line in sys.stdin:
        _reply(_spawn(json.loads(line)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
