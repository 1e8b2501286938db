"""Command-line interface: exact tables, censuses, moments, and distances.

Commands: table, census, moments, dist, compare, verify.  All numeric output
is exact; counts are decimal strings and rationals are "p/q" strings.  Float
columns are explicitly marked as hints.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import factorial, log
from typing import Callable, Iterable

from . import bpgraph, census, distances, golden, perm
from .hultman import (
    hultman_bona_flynn,
    hultman_new_formula,
    r_abs_sum,
    signed_gf,
    signed_hultman,
    signed_hultman_special,
    signed_mean,
    signed_moments,
    sury_identity_check,
    unsigned_gf,
    unsigned_mean,
    unsigned_moments,
)
from .perm import GuardError

EULER_GAMMA = 0.5772156649

__all__ = ["main"]


def _format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _float_hint(value: Fraction) -> str:
    return f"{float(value):.15g}"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_table(args: argparse.Namespace) -> int:
    rows = []
    for n in range(0, args.n + 1):
        for k in range(1, n + 2):
            v = signed_hultman(n, k) if args.signed else hultman_bona_flynn(n, k)
            if v or args.dense:
                rows.append((n, k, v))
    if args.format == "csv":
        lines = ["n,k,count"] + [f"{n},{k},{v}" for n, k, v in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "statistic": "signed_cycles" if args.signed else "unsigned_cycles",
            "rows": [{"n": n, "k": k, "count": str(v)} for n, k, v in rows],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _emit_distribution(table: census.DistributionTable, args: argparse.Namespace) -> None:
    items = sorted(table.counts.items())
    if args.format == "csv":
        lines = ["k,count"] + [f"{k},{v}" for k, v in items]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "n": table.n,
            "statistic": table.statistic,
            "counts": {str(k): str(v) for k, v in items},
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)


def cmd_census(args: argparse.Namespace) -> int:
    if args.statistic == "odd":
        if args.signed:
            print("error: the odd-cycle census is defined for unsigned permutations", file=sys.stderr)
            return 2
        table = census.odd_hultman_census(args.n, jobs=args.jobs, force=args.force)
    elif args.signed:
        table = census.signed_hultman_census(args.n, jobs=args.jobs, force=args.force)
    else:
        table = census.hultman_census(args.n, jobs=args.jobs, force=args.force)
    _emit_distribution(table, args)
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    rows = []
    for n in range(1, args.max_n + 1):
        pair = signed_moments(n) if args.signed else unsigned_moments(n)
        rows.append(
            (
                n,
                _format_fraction(pair.mean),
                _format_fraction(pair.variance),
                _float_hint(pair.mean),
                _float_hint(pair.variance),
            )
        )
    if args.format == "csv":
        lines = ["n,mean,variance,mean_float,variance_float"]
        lines += [",".join(str(x) for x in row) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "statistic": "signed_cycles" if args.signed else "unsigned_cycles",
            "rows": [
                {
                    "n": n,
                    "mean": mean,
                    "variance": var,
                    "mean_float": mf,
                    "variance_float": vf,
                }
                for n, mean, var, mf, vf in rows
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    table = distances.distance_distribution(args.n, args.metric, jobs=args.jobs, force=args.force)
    _emit_distribution(table, args)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    result = distances.compare_to_shifted(args.n, args.metric, force=args.force)
    if args.format == "csv":
        lines = ["k,distance,shifted,offset"]
        lines += [f"{k},{d},{s},{result.offset}" for k, d, s in result.rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "n": result.n,
            "metric": result.metric,
            "offset": result.offset,
            "total_variation": str(result.total_variation),
            "rows": [
                {"k": k, "distance": str(d), "shifted": str(s)} for k, d, s in result.rows
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


class _Checker:
    def __init__(self) -> None:
        self.checks = 0
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{tag} {name}{suffix}")
        self.checks += 1
        if not ok:
            self.failures += 1


def _verify_table1(chk: _Checker, max_n: int) -> None:
    for n in range(1, min(max_n, 11) + 1):
        expected = [golden.golden_value(n, k) for k in range(1, n + 2)]
        got = [signed_hultman(n, k) for k in range(1, n + 2)]
        chk.check(
            f"table1.row_n{n}",
            got == expected,
            "signed counts match the embedded reference row",
        )


def _verify_formulas(chk: _Checker, max_n: int) -> None:
    agree_to = max(max_n, 40)
    ok = all(
        hultman_new_formula(n, k) == hultman_bona_flynn(n, k)
        for n in range(0, agree_to + 1)
        for k in range(1, n + 2)
    )
    chk.check("formulas.unsigned_agreement", ok, f"two unsigned routes agree for n<={agree_to}")
    totals_to = max(max_n, 25)
    ok = all(
        sum(hultman_bona_flynn(n, k) for k in range(1, n + 2)) == factorial(n)
        and sum(signed_hultman(n, k) for k in range(1, n + 2)) == 2**n * factorial(n)
        for n in range(0, totals_to + 1)
    )
    chk.check("formulas.totals", ok, f"rows sum to n! and 2^n*n! for n<={totals_to}")
    for n in range(0, min(max_n, 9) + 1):
        table = census.hultman_census(n)
        ok = all(table.count(k) == hultman_bona_flynn(n, k) for k in range(1, n + 2))
        chk.check(f"formulas.unsigned_census_n{n}", ok, "census equals closed form")
    for n in range(0, min(max_n, 7) + 1):
        table = census.signed_hultman_census(n)
        ok = all(table.count(k) == signed_hultman(n, k) for k in range(1, n + 2))
        chk.check(f"formulas.signed_census_n{n}", ok, "census equals closed form")
    special_to = min(max(max_n, 11), 30)
    ok = all(
        signed_hultman(n, k) == signed_hultman_special(n, k)
        for n in range(1, special_to + 1)
        for k in (n + 1, n, n - 1)
        if k >= 1
    )
    chk.check("formulas.special_cases", ok, f"top three k values match for n<={special_to}")


def _verify_lemmas(chk: _Checker, max_n: int) -> None:
    top = min(max_n, 5)
    for n in range(0, top + 1):
        ok_valid = True
        ok_round = True
        seen = set()
        for pi in perm.enumerate_signed(n):
            bg = bpgraph.breakpoint_graph(pi)
            if not bpgraph.is_valid_breakpoint_graph(bg.config):
                ok_valid = False
                break
            back = bpgraph.recover_permutation(bg.config)
            if back != pi:
                ok_round = False
                break
            seen.add(bg.config.black.partner)
        chk.check(f"lemmas.valid_n{n}", ok_valid, "every breakpoint graph has a hamiltonian complement")
        chk.check(f"lemmas.roundtrip_n{n}", ok_round, "recovery inverts construction")
        chk.check(
            f"lemmas.distinct_n{n}",
            len(seen) == 2**n * factorial(n),
            "black matchings are pairwise distinct",
        )
    for n in range(0, top + 1):
        pairs = census.matching_census(n)
        row = {i: v for (i, j), v in pairs.items() if j == 1}
        ok = all(row.get(k, 0) == signed_hultman(n, k) for k in range(1, n + 2))
        chk.check(f"lemmas.matching_slice_n{n}", ok, "hamiltonian slice equals the signed row")
        valid_total = sum(row.values())
        chk.check(
            f"lemmas.valid_count_n{n}",
            valid_total == 2**n * factorial(n),
            "valid configurations biject with signed permutations",
        )
    for m in range(1, 5):
        mu = bpgraph.mu_relabeling(m)
        n = m - 1
        grey = bpgraph.grey_matching(n)
        shifted = bpgraph.grey_complement_matching(n)
        eps = bpgraph.identity_matching(m)
        ok = bpgraph.conjugate_matching(grey, mu) == eps
        fixed = bpgraph.conjugate_matching(shifted, mu)
        ok = ok and bpgraph.union_cycle_count(eps, fixed) == 1
        ok = ok and all(
            bpgraph.union_cycle_count(grey, tau)
            == bpgraph.union_cycle_count(eps, bpgraph.conjugate_matching(tau, mu))
            for tau in bpgraph.enumerate_matchings(m)
        )
        chk.check(f"lemmas.relabel_m{m}", ok, "conjugation preserves union cycle counts")


def _verify_bounds(chk: _Checker, max_n: int) -> None:
    for n in range(0, min(max_n, 7) + 1):
        ok = distances.bound_distribution(n, "bid") == distances.distance_distribution(n, "bid")
        chk.check(f"bounds.bid_shift_n{n}", ok, "tally equals shifted unsigned table")
    for n in range(0, min(max_n, 5) + 1):
        ok = distances.bound_distribution(n, "dcj") == distances.distance_distribution(n, "dcj")
        chk.check(f"bounds.dcj_shift_n{n}", ok, "tally equals shifted signed table")
    for n in range(0, min(max_n, 6) + 1):
        td_bfs = distances.bfs_distances(n, "transposition")
        ptd_bfs = distances.bfs_distances(n, "prefix_transposition")
        ok_group = len(td_bfs) == factorial(n) and len(ptd_bfs) == factorial(n)
        chk.check(f"bounds.unsigned_bfs_total_n{n}", ok_group, "BFS reaches the whole group")
        ok = True
        for images, d in td_bfs.items():
            if distances._metric_value(images, "td_lower") > d:
                ok = False
                break
            if distances._metric_value(images, "bid") > d:
                ok = False
                break
        chk.check(f"bounds.td_domination_n{n}", ok, "odd-cycle and bid bounds below BFS")
        ok = all(
            distances._metric_value(images, "ptd_lower") <= d
            for images, d in ptd_bfs.items()
        )
        chk.check(f"bounds.ptd_domination_n{n}", ok, "prefix transposition bound below BFS")
    for n in range(0, min(max_n, 5) + 1):
        srd_bfs = distances.bfs_distances(n, "signed_reversal")
        psrd_bfs = distances.bfs_distances(n, "prefix_signed_reversal")
        total = 2**n * factorial(n)
        chk.check(
            f"bounds.signed_bfs_total_n{n}",
            len(srd_bfs) == total and len(psrd_bfs) == total,
            "BFS reaches the whole group",
        )
        ok = all(
            distances._metric_value(images, "srd_lower") <= d for images, d in srd_bfs.items()
        )
        chk.check(f"bounds.srd_domination_n{n}", ok, "cycle bound below signed reversal BFS")
        ok = all(
            distances._metric_value(images, "psrd_lower") <= d
            for images, d in psrd_bfs.items()
        )
        chk.check(f"bounds.psrd_domination_n{n}", ok, "prefix bound below BFS")


def _verify_moments(chk: _Checker, max_n: int) -> None:
    for n in range(1, min(max_n, 7) + 1):
        table = census.hultman_census(n)
        ok = census.moments_from_table(table, factorial(n)) == unsigned_moments(n)
        chk.check(f"moments.unsigned_census_n{n}", ok, "formula equals census moments")
    for n in range(1, min(max_n, 6) + 1):
        table = census.signed_hultman_census(n)
        ok = census.moments_from_table(table, 2**n * factorial(n)) == signed_moments(n)
        chk.check(f"moments.signed_census_n{n}", ok, "formula equals census moments")
    gf_to = max(max_n, 12)
    ok = True
    for n in range(0, gf_to + 1):
        for poly, pair in ((unsigned_gf(n), unsigned_moments(n)), (signed_gf(n), signed_moments(n))):
            total = Fraction(poly.evaluate(1))
            d1 = Fraction(poly.derivative().evaluate(1))
            d2 = Fraction(poly.derivative().derivative().evaluate(1))
            mean = d1 / total
            variance = mean + d2 / total - mean * mean
            if (mean, variance) != (pair.mean, pair.variance):
                ok = False
    chk.check("moments.generating_function", ok, f"derivative route agrees for n<={gf_to}")
    ok = all(
        r_abs_sum(n) <= Fraction(2) * (1 - Fraction(1, 2**n)) / (n + 2) for n in range(0, 31)
    )
    chk.check("moments.r_sum_bound", ok, "correction coefficients within the stated bound")
    ok = all(sury_identity_check(n)[0] == sury_identity_check(n)[1] for n in range(0, 51))
    chk.check("moments.alternating_identity", ok, "both sides equal for n<=50")
    mean_u = float(unsigned_mean(1000))
    mean_s = float(signed_mean(1000))
    ok = abs(mean_u - (log(1000) + EULER_GAMMA)) <= 0.05
    chk.check("moments.unsigned_asymptotic", ok, "n=1000 mean within 0.05 of log(n)+gamma")
    ok = abs(mean_s - (log(1000) / 2 + EULER_GAMMA / 2 + log(2))) <= 0.05
    chk.check("moments.signed_asymptotic", ok, "n=1000 mean within 0.05 of log(n)/2+gamma/2+log(2)")


_SUITES: dict[str, tuple[Callable[[_Checker, int], None], int]] = {
    "table1": (_verify_table1, 11),
    "formulas": (_verify_formulas, 7),
    "lemmas": (_verify_lemmas, 4),
    "bounds": (_verify_bounds, 5),
    "moments": (_verify_moments, 6),
}


def cmd_verify(args: argparse.Namespace) -> int:
    runner, default_max = _SUITES[args.suite]
    max_n = args.max_n if args.max_n is not None else default_max
    chk = _Checker()
    runner(chk, max_n)
    if chk.checks == 0:
        print(f"error: suite {args.suite} ran no checks for --max-n {max_n}", file=sys.stderr)
        return 1
    if chk.failures:
        print(f"{chk.failures} check(s) failed", file=sys.stderr)
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
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--force", action="store_true", help="override the census size guard")
    _add_output_flags(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("moments", help="exact means and variances for n = 1..N")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--max-n", type=_int_at_least(0), required=True, dest="max_n")
    _add_output_flags(p)
    p.set_defaults(func=cmd_moments)

    metric_names = list(distances.FORMULA_METRICS) + list(distances.BOUND_METRICS) + list(
        distances.GENERATOR_SETS
    )

    p = sub.add_parser("dist", help="distance or bound distribution at a single n")
    p.add_argument("--metric", choices=metric_names, required=True)
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
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
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
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
