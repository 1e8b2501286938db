"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs a tiny workload in both modes and checks that the result line names
every metric of BENCHMARK.json with its unit, that every output passes its
checks, and that a planted wrong digest shows up as a failed command
(fail_frac > 0, correct false) rather than as an exception.  Exits non-zero
on the first broken expectation.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# One small command per path the real workloads take, including a --jobs 2
# census so the traced run measures a parallel speedup.
TINY = [
    "table --signed --n 6",
    "moments --signed --max-n 5",
    "dist --metric dcj --n 6",
    "table --n 12 --format json",
    "census --signed --n 4 --jobs 2",
    "census --n 5 --statistic odd --jobs 1",
    "dist --metric td_lower --n 5 --jobs 1",
    "dist --metric signed_reversal --n 3",
    "compare --metric prefix_signed_reversal --n 3",
]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"perfbench selftest FAILED: {what}")


def printed_result(trace: bool, digests: dict[str, str]) -> tuple[dict, dict]:
    record, result = run.run("tiny", TINY, seed=7, seconds=1, trace=trace, digests=digests)
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.report(record, result)
    return record, json.loads(buf.getvalue().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    digests = run.load_digests()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record, result = printed_result(trace, digests)
        expect(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(printed == wanted, f"{section} metrics printed as {printed}")
        expect(
            all(type(m["value"]) in (int, float) for m in result["metrics"].values()),
            f"{section} values are not all numbers",
        )
        expect(result["correct"] and result["failed"] == 0, f"tiny outputs: {record['problems']}")
        expect(result["attempted"] >= len(TINY), "fewer commands attempted than run")

    planted = dict(digests, **{TINY[0]: "0" * 64})
    for trace in (False, True):
        record, result = printed_result(trace, planted)
        expect(result["failed"] > 0 and not result["correct"], "planted digest not caught")
        expect(record["fail_frac"] > 0, "planted digest left fail_frac at 0")
        if not trace:
            expect(result["metrics"]["ok_frac"]["value"] < 1, "planted digest left ok_frac at 1")
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
