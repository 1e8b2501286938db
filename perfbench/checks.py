"""Output checks for benchmark commands.

Every command's stdout must match the SHA-256 digest recorded in
``digests.json``.  Where the numbers obey a rule that does not depend on the
code path that printed them, that rule is checked too: the golden signed
table for n <= 11, row totals n! and 2^n * n!, census rows equal to the
closed forms, and BFS level sizes that add up to the group order.

Nothing here imports the package under test; the golden table is read from
its source file.
"""

from __future__ import annotations

import hashlib
import json
import runpy
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

SIGNED_GROUPS = {"signed_reversal", "prefix_signed_reversal"}
SIGNED_METRICS = {"dcj", "srd_lower", "psrd_lower"} | SIGNED_GROUPS
GOLDEN_MAX_N = 11


def parse_command(command: str) -> tuple[str, dict[str, str | bool]]:
    """Split "census --signed --n 7" into ("census", {"signed": True, "n": "7"})."""
    words = command.split()
    flags: dict[str, str | bool] = {}
    i = 1
    while i < len(words):
        name = words[i][2:]
        if i + 1 < len(words) and not words[i + 1].startswith("--"):
            flags[name] = words[i + 1]
            i += 2
        else:
            flags[name] = True
            i += 1
    return words[0], flags


def group_order(n: int, signed: bool) -> int:
    return 2**n * factorial(n) if signed else factorial(n)


def _stirling_first_row(m: int) -> list[int]:
    row = [1]
    for i in range(1, m + 1):
        nxt = [0] * (i + 1)
        for k in range(1, i + 1):
            nxt[k] = row[k - 1] + (i - 1) * (row[k] if k < i else 0)
        row = nxt
    return row


def unsigned_row(n: int) -> dict[int, int]:
    """Unsigned cycle counts by the Stirling-number quotient (Bona-Flynn)."""
    stirling = _stirling_first_row(n + 2)
    return {
        k: stirling[k] // comb(n + 2, 2)
        for k in range(1, n + 2)
        if (n - k) % 2 == 1
    }


def _moments(row: dict[int, int]) -> tuple[Fraction, Fraction]:
    total = sum(row.values())
    mean = Fraction(sum(k * v for k, v in row.items()), total)
    second = Fraction(sum(k * k * v for k, v in row.items()), total)
    return mean, second - mean * mean


class Tally:
    """Attempted and failed commands, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, command: str, found: list[str]) -> None:
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.append(f"{command}: {'; '.join(found)}")


class OutputChecker:
    """Checks command outputs against recorded digests and invariants."""

    def __init__(self, root: Path, digests: dict[str, str]) -> None:
        golden = runpy.run_path(str(root / "src" / "bghultman" / "golden.py"))
        self.golden = {
            n: {k: int(v) for k, v in enumerate(row, start=1)}
            for n, row in golden["SIGNED_CYCLE_COUNTS"].items()
        }
        self.digests = digests
        self._verified: set[tuple[str, str]] = set()

    def problems(self, command: str, out: bytes) -> list[str]:
        """Every way in which ``out`` is not the right output of ``command``."""
        digest = hashlib.sha256(out).hexdigest()
        expected = self.digests.get(command)
        found = []
        if expected is None:
            found.append("no recorded digest")
        elif digest != expected:
            found.append(f"digest {digest[:12]} != recorded {expected[:12]}")
        if (command, digest) in self._verified:
            return found
        try:
            found += self._invariants(command, out.decode("utf-8"))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            found.append(f"unreadable output: {exc!r}")
        if not found:
            self._verified.add((command, digest))
        return found

    def _reference_row(self, n: int, signed: bool) -> dict[int, int] | None:
        """Nonzero counts for row n, or None where no reference is kept."""
        if n > GOLDEN_MAX_N:
            return None
        if signed:
            return self.golden.get(n)
        return unsigned_row(n)

    def _invariants(self, command: str, text: str) -> list[str]:
        sub, flags = parse_command(command)
        fmt = flags.get("format", "csv")
        signed = bool(flags.get("signed"))
        if sub == "table":
            return self._check_table(_table_rows(text, fmt), signed)
        if sub == "moments":
            return self._check_moments(text, fmt, signed)
        if sub == "compare":
            return _check_compare(text, fmt, int(flags["n"]), flags["metric"] in SIGNED_GROUPS)
        if sub in ("census", "dist"):
            return self._check_distribution(_distribution(text, fmt), int(flags["n"]), flags)
        return []

    def _check_table(self, rows: dict[int, dict[int, int]], signed: bool) -> list[str]:
        found = []
        for n, row in rows.items():
            if sum(row.values()) != group_order(n, signed):
                found.append(f"row n={n} does not sum to the group order")
            ref = self._reference_row(n, signed)
            if ref is not None and {k: v for k, v in row.items() if v} != ref:
                found.append(f"row n={n} differs from the reference row")
        return found

    def _check_moments(self, text: str, fmt: str, signed: bool) -> list[str]:
        if fmt == "json":
            rows = [(r["n"], r["mean"], r["variance"]) for r in json.loads(text)["rows"]]
        else:
            rows = [line.split(",")[:3] for line in text.splitlines()[1:]]
        found = []
        for n, mean, variance in rows:
            n = int(n)
            ref = self._reference_row(n, signed)
            if ref is not None and (Fraction(mean), Fraction(variance)) != _moments(ref):
                found.append(f"moments n={n} differ from the reference row")
        return found

    def _check_distribution(
        self, counts: dict[int, int], n: int, flags: dict[str, str | bool]
    ) -> list[str]:
        metric = flags.get("metric")
        statistic = flags.get("statistic", "cycles")
        signed = bool(flags.get("signed")) or metric in SIGNED_METRICS
        found = []
        if sum(counts.values()) != group_order(n, signed):
            found.append("counts do not sum to the group order")
        if metric is None and statistic == "cycles":
            ref = self._reference_row(n, signed)
            if ref is not None and counts != ref:
                found.append("census differs from the closed form")
        elif metric is None and statistic == "odd":
            # Cycle lengths add up to n+1, so the odd ones have its parity.
            if any((k - n - 1) % 2 for k in counts):
                found.append("odd-cycle count with the wrong parity")
        elif metric == "dcj":
            top = {0: 1, 1: comb(n + 1, 2), 2: 5 * comb(n + 1, 4) + 4 * comb(n + 1, 3)}
            if any(counts.get(d, 0) != v for d, v in top.items() if d <= n):
                found.append("top three dcj counts differ from their closed forms")
            ref = self._reference_row(n, True)
            if ref is not None and counts != {n + 1 - k: v for k, v in ref.items()}:
                found.append("dcj distribution differs from the reference row")
        elif metric == "td_lower":
            if any(not 0 <= d <= (n + 1) // 2 for d in counts):
                found.append("bound value out of range")
        elif counts.get(0) != 1:
            found.append("distance 0 is not reached exactly once")
        return found


def _table_rows(text: str, fmt: str) -> dict[int, dict[int, int]]:
    if fmt == "json":
        triples = [(r["n"], r["k"], r["count"]) for r in json.loads(text)["rows"]]
    else:
        triples = [line.split(",") for line in text.splitlines()[1:]]
    rows: dict[int, dict[int, int]] = {}
    for n, k, count in triples:
        rows.setdefault(int(n), {})[int(k)] = int(count)
    return rows


def _distribution(text: str, fmt: str) -> dict[int, int]:
    if fmt == "json":
        return {int(k): int(v) for k, v in json.loads(text)["counts"].items()}
    pairs = (line.split(",") for line in text.splitlines()[1:])
    return {int(k): int(v) for k, v in pairs}


def _check_compare(text: str, fmt: str, n: int, signed: bool) -> list[str]:
    if fmt == "json":
        rows = [(r["distance"], r["shifted"]) for r in json.loads(text)["rows"]]
    else:
        rows = [line.split(",")[1:3] for line in text.splitlines()[1:]]
    order = group_order(n, signed)
    found = []
    if sum(int(d) for d, _ in rows) != order:
        found.append("distance column does not sum to the group order")
    if sum(int(s) for _, s in rows) != order:
        found.append("shifted column does not sum to the group order")
    return found
