"""The bghultman benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it drives the workload
as a closed loop: one client, one command at a time, each a fresh
``python -m bghultman ...`` process with ``PYTHONPATH=src``, timed from
spawn to reap.  Passes over the workload's commands repeat for ``--seconds``
and the end-to-end metrics are medians over passes.  With ``--trace 1`` it
runs the workload in-process under span recorders instead and reports the
per-layer metrics (see ``layers.py``).

The seed sets the command order within each pass and the kernel samples;
the library sees only the command lines.  Every output is checked (see
``checks.py``); a wrong output counts as a failed command, never as a crash.
The last line of stdout is the result; the line before it is the full
record, which is also appended to ``perfbench/out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from checks import OutputChecker, Tally  # noqa: E402

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, list[str]] = {
    "closed_forms": [
        "table --signed --n 40",
        "moments --signed --max-n 60",
        "dist --metric dcj --n 80",
        "table --n 400 --format json",
    ],
    "census": [
        "census --signed --n 7 --jobs 1",
        "census --n 9 --statistic odd --jobs 1",
        "dist --metric td_lower --n 9 --jobs 1",
    ],
    "census_jobs2": [
        "census --signed --n 7 --jobs 2",
        "census --n 9 --statistic odd --jobs 2",
        "dist --metric td_lower --n 9 --jobs 2",
    ],
    "bfs_oracle": [
        "dist --metric signed_reversal --n 6",
        "dist --metric transposition --n 8",
        "compare --metric prefix_signed_reversal --n 6",
    ],
}
SETUP_COMMAND = "table --n 0"
MIN_SETUP_LAUNCHES = 9
# Every run must end within 180 s; a command still running at this mark
# from the start is killed and counted as failed.
HARD_LIMIT_S = 150.0

# Other tenants of a shared host can slow everything by up to 1.8x for
# minutes, longer than a run can average out.  Two reference launches
# bracket every command: a fresh interpreter that imports the standard
# modules bghultman imports, and nothing of bghultman.  They slow with the
# host much as the commands do.  The time metrics are scaled by
# REFERENCE_NOMINAL_S / (median reference launch), i.e. given in seconds of a
# host on which the reference launch takes 75 ms.  Raw times stay in the
# record.
REFERENCE_ARGS = ["-c", "import argparse, concurrent.futures, dataclasses, fractions, json"]
REFERENCE_NOMINAL_S = 0.075

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}


class Launcher:
    """Talks to launch.py, which spawns each command and reports its rusage."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.env = dict(os.environ, PYTHONPATH="src")
        self.stdout_path = OUT / f"cmd-{os.getpid()}.out"
        self.stderr_path = OUT / f"cmd-{os.getpid()}.err"

    def run(self, command: str) -> tuple[dict, bytes, bytes]:
        return self.spawn([sys.executable, "-m", "bghultman", *command.split()])

    def reference(self) -> float:
        """Wall time of one reference launch."""
        reply, _, err = self.spawn([sys.executable, *REFERENCE_ARGS])
        if reply["exit"] != 0:
            raise RuntimeError(f"reference launch failed: {err.decode('utf-8', 'replace')}")
        return reply["wall_s"]

    def spawn(self, argv: list[str]) -> tuple[dict, bytes, bytes]:
        request = {
            "argv": argv,
            "cwd": str(ROOT),
            "env": self.env,
            "stdout": str(self.stdout_path),
            "stderr": str(self.stderr_path),
            "timeout": max(1.0, self.deadline - time.perf_counter()),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply, self.stdout_path.read_bytes(), self.stderr_path.read_bytes()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        for path in (self.stdout_path, self.stderr_path):
            path.unlink(missing_ok=True)


def launch_checked(launcher: Launcher, checker: OutputChecker, tally: Tally, command: str) -> dict:
    reply, out, err = launcher.run(command)
    if reply["timed_out"]:
        found = ["timed out"]
    elif reply["exit"] != 0:
        found = [f"exit {reply['exit']}: {err.decode('utf-8', 'replace').strip()[-200:]}"]
    else:
        found = checker.problems(command, out)
    tally.add(command, found)
    return reply


def measure_end_to_end(
    commands: list[str], rng: Random, seconds: float, checker: OutputChecker, started: float
) -> tuple[dict[str, float], Tally, dict]:
    tally = Tally()
    launcher = Launcher(started + HARD_LIMIT_S)
    try:
        # The first launch may compile bytecode; it is checked but not timed.
        launch_checked(launcher, checker, tally, SETUP_COMMAND)
        refs, setup, raw_walls, scales, walls, cpus, peaks, durations = ([] for _ in range(8))
        window = time.perf_counter()
        while not walls or (
            time.perf_counter() - window + statistics.median(durations) <= seconds
            and time.perf_counter() - started + max(durations) < HARD_LIMIT_S
        ):
            t0 = time.perf_counter()
            pass_refs, replies = [], []
            for command in rng.sample(commands, len(commands)):
                # Reference and set-up launches are spread over the run, so
                # they see the same phases of the host as the commands.
                pass_refs.append(launcher.reference())
                setup.append(launch_checked(launcher, checker, tally, SETUP_COMMAND)["wall_s"])
                replies.append(launch_checked(launcher, checker, tally, command))
                pass_refs.append(launcher.reference())
            durations.append(time.perf_counter() - t0)
            refs += pass_refs
            scale = REFERENCE_NOMINAL_S / statistics.median(pass_refs)
            raw_walls.append(sum(r["wall_s"] for r in replies))
            scales.append(scale)
            walls.append(raw_walls[-1] * scale)
            cpus.append(sum(r["cpu_s"] for r in replies) * scale)
            peaks.append(max(r["maxrss_kib"] for r in replies) / 1024)
            if any(r["timed_out"] for r in replies):
                break
        while len(setup) < MIN_SETUP_LAUNCHES and time.perf_counter() - started < HARD_LIMIT_S:
            refs.append(launcher.reference())
            setup.append(launch_checked(launcher, checker, tally, SETUP_COMMAND)["wall_s"])
    finally:
        launcher.close()
    setup_scale = REFERENCE_NOMINAL_S / statistics.median(refs)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setup) * setup_scale,
        "ok_frac": 1 - tally.failed / tally.attempted,
    }
    extra = {
        "passes": len(walls),
        "raw_wall_s": statistics.median(raw_walls),
        "raw_setup_s": statistics.median(setup),
        "reference_s": statistics.median(refs),
        "pass_raw_wall_s": raw_walls,
        "pass_raw_cpu_s": [c / k for c, k in zip(cpus, scales)],
        "pass_scale": scales,
        "pass_peak_rss_mb": peaks,
        "setup_raw_wall_s": setup,
        "reference_wall_s": refs,
    }
    return metrics, tally, extra


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, so a record names the code it measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "record": "perfbench",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": git_revision(),
        "src_sha256": source_digest(),
        "loadavg": os.getloadavg(),
        "time_unix": time.time(),
    }


def run(
    workload: str, commands: list[str], seed: int, seconds: int, trace: bool,
    digests: dict[str, str],
) -> tuple[dict, dict]:
    """Measure one workload; returns the full record and the result object."""
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    record = stamp(workload, seed, seconds, trace)
    checker = OutputChecker(ROOT, digests)
    rng = Random(seed)
    if trace:
        from layers import PER_LAYER_UNITS, traced_run

        spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
        values, tally, extra = traced_run(ROOT, commands, rng, seconds, checker, spans_path)
        units = PER_LAYER_UNITS
    else:
        values, tally, extra = measure_end_to_end(commands, rng, seconds, checker, started)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update(extra)
    record.update(
        {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "fail_frac": tally.failed / tally.attempted,
            "problems": tally.problems[:20],
            "elapsed_s": time.perf_counter() - started,
            "metrics": metrics,
        }
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return record, result


def load_digests() -> dict[str, str]:
    return json.loads((BENCH / "digests.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bghultman benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bghultman" / "__main__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'bghultman'}", file=sys.stderr)
        return 2
    record, result = run(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), load_digests(),
    )
    report(record, result)
    return 0


def report(record: dict, result: dict) -> None:
    """Append the record to the results log and print it, then the result line."""
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    raise SystemExit(main())
