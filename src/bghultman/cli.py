"""Command-line interface: exact tables, censuses, moments, and distances.

Commands: table, census, moments, dist, compare, verify.  All numeric output
is exact; counts are decimal strings and rationals are "p/q" strings.  Float
columns are explicitly marked as hints.  CSV and JSON alike are written as
rows are produced, joined into pieces of at least ``_PIECE`` characters, so
``table`` holds one row of counts and one piece of text at a time.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, compress, repeat, starmap
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence

from . import census, distances
from .hultman import signed_moments, signed_rows, unsigned_decimal_rows, unsigned_moments
from .perm import GuardError

__all__ = ["main"]

# The names of verify.SUITES, spelled here so that only `hultman verify`
# imports the suites; tests/test_source.py checks that the two agree.
_SUITE_NAMES = ("bounds", "formulas", "lemmas", "moments", "table1")

# Rows go out joined into pieces of at least this many characters.  With
# stdout unbuffered (PYTHONUNBUFFERED=1) each string written is one write(2),
# so one write per row made ~40,000 writes of `table --n 400 --format json`
# (16 MB); 64 KiB pieces make ~250.  16 KiB pieces (~960 writes) gave the
# same peak RSS and took ~15 ms longer.  A row is 5 to ~1,000 characters, so
# the pieces are measured in characters: memory holds one row and one piece,
# where a fixed count of rows would grow with n.
_PIECE = 1 << 16


def _write(args: argparse.Namespace, columns: Sequence[str], document: dict[str, Any]) -> None:
    """Write ``document``, whose last value is an iterable of rows, per --format.

    CSV is the ``columns`` header and one line per row; JSON is what
    ``json.dumps(document, indent=2)`` would give (see ``_json_text``).  Each
    row fills one ``str.format`` template, and the filled rows go out as they
    come, joined into pieces of at least ``_PIECE`` characters (``_pieces``),
    to stdout or to --out.  --out writes through a symlink, writes an existing
    device or FIFO in place, and replaces a regular file only once a temporary
    file beside it is complete; a symlink loop is an error.
    """
    *head, (container, rows) = document.items()
    if args.format == "csv":
        template = ",".join(["{}"] * len(columns)) + "\n"
        pieces = map("".join, _pieces(starmap(template.format, rows)))
        text = chain([",".join(columns) + "\n"], pieces)
    else:
        text = _json_text(columns, dict(head), container, rows)
    if args.out is None:
        _to_stdout(text)
        return
    target = os.path.realpath(args.out)
    in_place = os.path.lexists(target) and not os.path.isfile(target)
    path = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(text)
        if not in_place:
            os.replace(path, target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, args.out) from None
    finally:
        if not in_place and os.path.exists(path):
            os.remove(path)


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


def _pieces(texts: Iterable[str]) -> Iterator[list[str]]:
    """Group ``texts`` into lists of at least ``_PIECE`` characters; the last may be shorter."""
    piece, size = [], 0
    for text in texts:
        piece.append(text)
        size += len(text)
        if size >= _PIECE:
            yield piece
            piece, size = [], 0
    if piece:
        yield piece


# Besides its template's quotes and newlines, a JSON row may hold the
# printable ASCII that json.dumps writes as itself: all but '"' and '\'.
_JSON_PLAIN = bytes(range(32, 127)).translate(None, b'"\\')


def _json_scalar(value: Any) -> str:
    """``value`` as json.dumps writes it: an int, or a str that needs no escaping.

    The keys, head values and column names are such values; quoting them
    here keeps the json package, ~0.1 MiB of peak RSS, out of every launch.
    """
    if type(value) is int:
        return str(value)
    if isinstance(value, str) and not value.encode("ascii").translate(None, _JSON_PLAIN):
        return f'"{value}"'
    raise ValueError(f"{value!r} is not an int or a string that needs no JSON escaping")


def _json_text(
    columns: Sequence[str], head: dict[str, Any], container: str, rows: Iterable[Sequence[Any]]
) -> Iterator[str]:
    # A "counts" container maps each row's first cell to its second, both
    # quoted; any other lists one object per row, keyed by the columns not in
    # ``head``, from a template typed by the first row: {:d} for an int cell,
    # "{:s}" for a str cell, so a cell unlike the first row's fails its spec.
    # A quoted cell reads as json.dumps would write it unless it holds '"',
    # '\', a control or a non-ASCII character.  Cells here are digits, "p/q"
    # rationals and %.15g hints, but every row is checked all the same, once
    # per piece: less _JSON_PLAIN, a piece must leave only its rows' template
    # quotes and newlines, row by row, or this raises ValueError.  A cell adds
    # characters and never removes one, so a piece passes exactly when each
    # of its rows would.
    counts = container == "counts"
    opening, closing = "{}" if counts else "[]"
    yield "{\n" + "".join(f"  {_json_scalar(k)}: {_json_scalar(v)},\n" for k, v in head.items())
    yield f"  {_json_scalar(container)}: {opening}"
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        if counts:
            template = '    "{0}": "{1}"'
        else:
            fields = (
                f"      {_json_scalar(c)}: " + ('"{%d:s}"' if isinstance(v, str) else "{%d:d}") % i
                for i, (c, v) in enumerate(zip(columns, first)) if c not in head
            )
            template = "    {{\n" + ",\n".join(fields) + "\n    }}"
        # What a clean row leaves: its quotes and newlines, in template order.
        left = ("\n" + template).encode("ascii").translate(None, _JSON_PLAIN)
        texts = chain(["\n" + template.format(*first)], starmap((",\n" + template).format, rows))
        for piece in _pieces(texts):
            text = "".join(piece)
            if text.encode("ascii").translate(None, _JSON_PLAIN) != left * len(piece):
                raise ValueError("a string cell needs JSON escaping")
            yield text
        closing = "\n  " + closing
    yield closing + "\n}\n"


def cmd_table(args: argparse.Namespace) -> int:
    def row_cells(n, coeffs):
        counts = coeffs[1 : n + 2]  # k = 1..n+1; the x^(n+1) coefficient is 1
        cells = zip(repeat(n), range(1, n + 2), map(str, counts))
        return cells if args.dense else compress(cells, counts)

    # The unsigned counts come as Decimal integers, whose str() gives int's
    # digits in linear time; int's str() is quadratic in the digits.
    if args.signed:
        stream = (row.coeffs for row in signed_rows(args.n))
    else:
        stream = unsigned_decimal_rows(args.n)
    _write(args, ("n", "k", "count"), {
        "statistic": "signed_cycles" if args.signed else "unsigned_cycles",
        "rows": chain.from_iterable(starmap(row_cells, enumerate(stream))),
    })
    return 0


def _write_distribution(table: census.DistributionTable, args: argparse.Namespace) -> None:
    _write(args, ("k", "count"), {
        "n": table.n,
        "statistic": table.statistic,
        "counts": sorted(table.counts.items()),
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
    p.add_argument("--out", metavar="PATH", help="write to file instead of stdout")


class _Parser(argparse.ArgumentParser):
    # A rejected command line is one line on stderr, without the usage text;
    # add_subparsers builds every subcommand's parser from this class too.
    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--max-n", type=_int_at_least(1), required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("dist", help="distance or bound distribution at a single n")
    p.add_argument("--metric", choices=[*distances.METRICS, *distances.GENERATOR_SETS], required=True)
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
    p.add_argument(
        "--max-n", type=_int_at_least(0),
        help="largest n of every route check, of table1's rows and of the lemmas; the other "
        "checks keep fixed sizes. The default is the largest size of the suite's routes, "
        "11 for table1 and 4 for lemmas (verify.SUITES)",
    )
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
