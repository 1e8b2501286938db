"""Command-line interface: exact tables, censuses, moments, and distances.

Commands: table, census, moments, dist, compare, verify.  All numeric output
is exact; counts are decimal strings and rationals are "p/q" strings.  Float
columns are explicitly marked as hints.  CSV and JSON alike are written as
rows are produced, so ``table`` holds one row of counts at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import census, distances
from .hultman import signed_moments, signed_rows, unsigned_moments, unsigned_rows
from .perm import GuardError

__all__ = ["main"]

# The names of verify.SUITES, spelled here so that only `hultman verify`
# imports the suites; tests/test_source.py checks that the two agree.
_SUITE_NAMES = ("bounds", "formulas", "lemmas", "moments", "table1")


def _write(args: argparse.Namespace, columns: Sequence[str], document: dict[str, Any]) -> None:
    """Write ``document``, whose last value is an iterable of rows, per --format.

    CSV is the ``columns`` header and one line per row; JSON is what
    ``json.dumps(document, indent=2)`` would give (see ``_json_text``).  Text
    goes out as the rows come, to stdout or to --out through a temporary file
    in the same directory that replaces it only once complete.
    """
    *head, (container, rows) = document.items()
    if args.format == "csv":
        text = chain([",".join(columns) + "\n"], (",".join(map(str, row)) + "\n" for row in rows))
    else:
        text = _json_text(columns, dict(head), container, rows)
    if args.out is None:
        _to_stdout(text)
        return
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(text)
        os.replace(tmp, args.out)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, args.out) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _to_stdout(text: Iterable[str]) -> None:
    """Write ``text`` to stdout as it comes.

    If the reader leaves early (`| head`), ``text`` stops where the write
    failed, and later writes and the exit flush go to devnull.
    """
    try:
        sys.stdout.writelines(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _json_text(
    columns: Sequence[str], head: dict[str, Any], container: str, rows: Iterable[Sequence[Any]]
) -> Iterator[str]:
    # A "counts" container maps each row's first string to its second; any
    # other lists one object per row, keyed by the columns not in ``head``.
    # Each row fills a template built once, and only strings go through
    # json.dumps, whose compact form runs in C.
    counts = container == "counts"
    fields = (f"      {json.dumps(c)}: {{{i}}}" for i, c in enumerate(columns) if c not in head)
    template = "    {0}: {1}" if counts else "    {{\n" + ",\n".join(fields) + "\n    }}"
    opening, closing = "{}" if counts else "[]"
    yield "{\n" + "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n" for k, v in head.items())
    yield f"  {json.dumps(container)}: {opening}"
    sep = "\n"
    for row in rows:
        yield sep + template.format(*[json.dumps(v) if isinstance(v, str) else v for v in row])
        sep = ",\n"
    yield ("\n  " if sep == ",\n" else "") + closing + "\n}\n"


def cmd_table(args: argparse.Namespace) -> int:
    stream = enumerate((signed_rows if args.signed else unsigned_rows)(args.n))
    cells = ((n, k, row.coefficient(k)) for n, row in stream for k in range(1, n + 2))
    _write(args, ("n", "k", "count"), {
        "statistic": "signed_cycles" if args.signed else "unsigned_cycles",
        "rows": ((n, k, str(v)) for n, k, v in cells if v or args.dense),
    })
    return 0


def _write_distribution(table: census.DistributionTable, args: argparse.Namespace) -> None:
    _write(args, ("k", "count"), {
        "n": table.n,
        "statistic": table.statistic,
        "counts": ((str(k), str(v)) for k, v in sorted(table.counts.items())),
    })


def cmd_census(args: argparse.Namespace) -> int:
    if args.statistic == "odd":
        if args.signed:
            raise ValueError("the odd-cycle census is defined for unsigned permutations")
        table = census.odd_hultman_census(args.n, force=args.force)
    elif args.signed:
        table = census.signed_hultman_census(args.n, force=args.force)
    else:
        table = census.hultman_census(args.n, force=args.force)
    _write_distribution(table, args)
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    def row(n: int) -> tuple[Any, ...]:
        pair = signed_moments(n) if args.signed else unsigned_moments(n)
        exact = [f"{x.numerator}/{x.denominator}" for x in (pair.mean, pair.variance)]
        hints = [f"{float(x):.15g}" for x in (pair.mean, pair.variance)]
        return (n, *exact, *hints)

    _write(args, ("n", "mean", "variance", "mean_float", "variance_float"), {
        "statistic": "signed_cycles" if args.signed else "unsigned_cycles",
        "rows": map(row, range(1, args.max_n + 1)),
    })
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    table = distances.distance_distribution(args.n, args.metric, force=args.force)
    _write_distribution(table, args)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    result = distances.compare_to_shifted(args.n, args.metric, force=args.force)
    _write(args, ("k", "distance", "shifted", "offset"), {
        "n": result.n,
        "metric": result.metric,
        "offset": result.offset,
        "total_variation": str(result.total_variation),
        "rows": ((k, str(d), str(s), result.offset) for k, d, s in result.rows),
    })
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    suite, default_max = verify.SUITES[args.suite]
    max_n = default_max if args.max_n is None else args.max_n
    checks = failures = 0

    def lines() -> Iterator[str]:
        nonlocal checks, failures
        for name, ok, detail in suite(max_n):
            checks += 1
            failures += not ok
            yield f"{'PASS' if ok else 'FAIL'} {name} ({detail})\n"

    text = lines()
    _to_stdout(text)
    # A reader that left early does not stop the checks the exit code reports.
    for _ in text:
        pass
    if checks == 0:
        print(f"error: suite {args.suite} ran no checks for --max-n {max_n}", file=sys.stderr)
        return 1
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """Argparse type for an integer option that must be >= minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_JOBS_HELP = "accepted for compatibility; has no effect"


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hultman",
        description="Exact breakpoint-graph cycle statistics and rearrangement distances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="closed-form cycle-count table for n = 0..N")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--n", type=_int_at_least(0), required=True, help="largest n to emit")
    p.add_argument("--dense", action="store_true", help="include zero-count rows")
    _add_output_flags(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("census", help="exhaustive census at a single n")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--statistic", choices=("cycles", "odd"), default="cycles")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=_JOBS_HELP)
    p.add_argument("--force", action="store_true", help="override the census size guard")
    _add_output_flags(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("moments", help="exact means and variances for n = 1..N")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--max-n", type=_int_at_least(1), required=True, dest="max_n")
    _add_output_flags(p)
    p.set_defaults(func=cmd_moments)

    metric_names = list(distances.FORMULA_METRICS) + list(distances.BOUND_METRICS) + list(
        distances.GENERATOR_SETS
    )

    p = sub.add_parser("dist", help="distance or bound distribution at a single n")
    p.add_argument("--metric", choices=metric_names, required=True)
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=_JOBS_HELP)
    p.add_argument("--force", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("compare", help="fit a shifted cycle table to a BFS distance")
    p.add_argument("--metric", choices=sorted(distances.GENERATOR_SETS), required=True)
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--force", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=_SUITE_NAMES, required=True)
    p.add_argument("--max-n", type=_int_at_least(0), default=None, dest="max_n")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except (GuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
