"""Spawn commands one at a time and report their wall time and rusage.

Reads one JSON request per line on stdin:
    {"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path,
     "timeout": seconds}
and answers each with one JSON line on stdout:
    {"wall_s": ..., "cpu_s": ..., "maxrss_kib": ..., "exit": ..., "timed_out": ...}

The benchmark runner holds large outputs in memory while it checks them.
Linux carries a parent's peak RSS into the max-RSS of every child it spawns
afterwards, so commands are spawned from this small, long-lived process
instead, and the reported max-RSS belongs to the command.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pgid: int, fired: threading.Event) -> None:
    fired.set()
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_one(req: dict) -> dict:
    fired = threading.Event()
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"],
            stdout=out,
            stderr=err,
            cwd=req["cwd"],
            env=req["env"],
            start_new_session=True,
        )
        timer = threading.Timer(req["timeout"], _kill_group, (proc.pid, fired))
        timer.start()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        timer.join()
    # Reaped here with wait4, so tell Popen not to wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "maxrss_kib": ru.ru_maxrss,
        "exit": proc.returncode,
        "timed_out": fired.is_set(),
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_one(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
