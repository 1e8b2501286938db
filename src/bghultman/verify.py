"""Verification suites: closed forms, censuses and the BFS oracle checked against each other.

A suite is a generator of ``(name, ok, detail)`` checks up to a size limit
``max_n``; ``hultman verify`` prints one PASS or FAIL line per check.
``SUITES`` maps each suite name to its generator and its default limit.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, log
from typing import Callable, Iterator

from . import bpgraph, census, distances, golden, perm
from .hultman import (
    hultman_new_formula,
    r_abs_sum,
    r_sum,
    signed_gf,
    signed_hultman_special,
    signed_mean,
    signed_moments,
    signed_rows,
    sury_identity_check,
    unsigned_gf,
    unsigned_mean,
    unsigned_moments,
    unsigned_rows,
)

__all__ = ["EULER_GAMMA", "SUITES"]

EULER_GAMMA = 0.5772156649

Checks = Iterator[tuple[str, bool, str]]


def _order(n: int, signed: bool) -> int:
    return 2**n * factorial(n) if signed else factorial(n)


# The unsigned and the signed group: census, closed-form row stream, exact
# moments and generating function, then the largest census n of the formulas
# and the moments suites.
_Group = namedtuple("_Group", "name signed tally rows moments gf formulas_to moments_to")
_UNSIGNED = _Group(
    "unsigned", False, census.hultman_census, unsigned_rows, unsigned_moments, unsigned_gf,
    9, 7,
)
_SIGNED = _Group(
    "signed", True, census.signed_hultman_census, signed_rows, signed_moments, signed_gf,
    7, 6,
)
_GROUPS = (_UNSIGNED, _SIGNED)

# BFS domination checks: (group, largest n, rows of (generator set, check
# name, bounds that must not exceed the BFS distance, detail)).
_BFS_DOMINATION = (
    (_UNSIGNED, 6, (
        ("transposition", "td", ("td_lower", "bid"), "odd-cycle and bid bounds below BFS"),
        ("prefix_transposition", "ptd", ("ptd_lower",), "prefix transposition bound below BFS"),
    )),
    (_SIGNED, 5, (
        ("signed_reversal", "srd", ("srd_lower",), "cycle bound below signed reversal BFS"),
        ("prefix_signed_reversal", "psrd", ("psrd_lower",), "prefix bound below BFS"),
    )),
)


def table1(max_n: int) -> Checks:
    for n, row in enumerate(signed_rows(min(max_n, 11))):
        if n == 0:
            continue
        expected = [golden.golden_value(n, k) for k in range(1, n + 2)]
        got = [row.coefficient(k) for k in range(1, n + 2)]
        yield f"table1.row_n{n}", got == expected, "signed counts match the embedded reference row"


def formulas(max_n: int) -> Checks:
    agree_to = max(max_n, 40)
    ok = all(
        hultman_new_formula(n, k) == row.coefficient(k)
        for n, row in enumerate(unsigned_rows(agree_to))
        for k in range(1, n + 2)
    )
    yield "formulas.unsigned_agreement", ok, f"two unsigned routes agree for n<={agree_to}"
    totals_to = max(max_n, 25)
    ok = all(
        row.evaluate(1) == _order(n, group.signed)
        for group in _GROUPS
        for n, row in enumerate(group.rows(totals_to))
    )
    yield "formulas.totals", ok, f"rows sum to n! and 2^n*n! for n<={totals_to}"
    for group in _GROUPS:
        for n, row in enumerate(group.rows(min(max_n, group.formulas_to))):
            table = group.tally(n)
            ok = all(table.count(k) == row.coefficient(k) for k in range(1, n + 2))
            yield f"formulas.{group.name}_census_n{n}", ok, "census equals closed form"
    special_to = min(max(max_n, 11), 30)
    ok = all(
        row.coefficient(k) == signed_hultman_special(n, k)
        for n, row in enumerate(signed_rows(special_to))
        for k in (n + 1, n, n - 1)
        if min(n, k) >= 1
    )
    yield "formulas.special_cases", ok, f"top three k values match for n<={special_to}"
    ok = all(row == signed_gf(n) for n, row in enumerate(signed_rows(agree_to)))
    yield "formulas.signed_recurrence", ok, f"recurrence rows equal the hook sum for n<={agree_to}"


def lemmas(max_n: int) -> Checks:
    top = min(max_n, 5)
    for n in range(0, top + 1):
        ok_valid = True
        ok_round = True
        seen = set()
        for pi in perm.enumerate_signed(n):
            config = bpgraph.breakpoint_graph(pi)
            if not bpgraph.is_valid_breakpoint_graph(config):
                ok_valid = False
                break
            if bpgraph.recover_permutation(config) != pi:
                ok_round = False
                break
            seen.add(config.black)
        yield f"lemmas.valid_n{n}", ok_valid, "every breakpoint graph has a hamiltonian complement"
        yield f"lemmas.roundtrip_n{n}", ok_round, "recovery inverts construction"
        ok = len(seen) == _order(n, True)
        yield f"lemmas.distinct_n{n}", ok, "black matchings are pairwise distinct"
    for n, counts in enumerate(signed_rows(top)):
        pairs = census.matching_census(n)
        row = {i: v for (i, j), v in pairs.items() if j == 1}
        ok = all(row.get(k, 0) == counts.coefficient(k) for k in range(1, n + 2))
        yield f"lemmas.matching_slice_n{n}", ok, "hamiltonian slice equals the signed row"
        ok = sum(row.values()) == _order(n, True)
        yield f"lemmas.valid_count_n{n}", ok, "valid configurations biject with signed permutations"
    for m in range(1, 5):
        mu = bpgraph.mu_relabeling(m)
        grey = bpgraph.grey_matching(m - 1)
        eps = bpgraph.identity_matching(m)
        fixed = bpgraph.conjugate_matching(bpgraph.grey_complement_matching(m - 1), mu)
        ok = (
            bpgraph.conjugate_matching(grey, mu) == eps
            and bpgraph.union_cycle_count(eps, fixed) == 1
            and all(
                bpgraph.union_cycle_count(grey, tau)
                == bpgraph.union_cycle_count(eps, bpgraph.conjugate_matching(tau, mu))
                for tau in bpgraph.iter_partner_tuples(m)
            )
        )
        yield f"lemmas.relabel_m{m}", ok, "conjugation preserves union cycle counts"


def bounds(max_n: int) -> Checks:
    # Every metric that distance_distribution reads off the closed-form row.
    for metric, row in distances.METRICS.items():
        if not row.closed_form:
            continue
        group, top = ("signed", 5) if row.signed else ("unsigned", 7)
        for n in range(0, min(max_n, top) + 1):
            tally = distances.bound_distribution(n, metric)
            ok = tally == distances.distance_distribution(n, metric)
            yield f"bounds.{metric}_shift_n{n}", ok, f"tally equals shifted {group} table"
    # Block-interchange distance is (n+1-c)/2 (Christie 1996), so the BFS
    # levels must equal the closed-form bid row at every size it reaches.
    for n in range(0, distances.BFS_UNSIGNED_GUARD + 1):
        levels = distances.bfs_level_sizes(n, "block_interchange")
        ok = levels == distances.distance_distribution(n, "bid").counts
        yield f"bounds.bid_bfs_n{n}", ok, "block-interchange BFS levels equal the closed form"
    for group, top, rows in _BFS_DOMINATION:
        for n in range(0, min(max_n, top) + 1):
            bfs = [distances.bfs_distances(n, gset) for gset, *_ in rows]
            ok = all(len(dist) == _order(n, group.signed) for dist in bfs)
            yield f"bounds.{group.name}_bfs_total_n{n}", ok, "BFS reaches the whole group"
            for (_, name, metrics, detail), dist in zip(rows, bfs):
                ok = all(
                    distances._metric_value(images, metric) <= d
                    for images, d in dist.items()
                    for metric in metrics
                )
                yield f"bounds.{name}_domination_n{n}", ok, detail


def _gf_agrees(poly, pair) -> bool:
    # Whether the mean and variance of the distribution a generating function
    # counts, from its value and first two derivatives at x = 1, equal pair's.
    d = poly.derivative()
    total, d1, d2 = poly.evaluate(1), d.evaluate(1), d.derivative().evaluate(1)
    mean = Fraction(d1, total)
    return (mean, mean + Fraction(d2, total) - mean * mean) == (pair.mean, pair.variance)


def moments(max_n: int) -> Checks:
    for group in _GROUPS:
        for n in range(1, min(max_n, group.moments_to) + 1):
            table = group.tally(n)
            ok = census.moments_from_table(table, _order(n, group.signed)) == group.moments(n)
            yield f"moments.{group.name}_census_n{n}", ok, "formula equals census moments"
    gf_to = max(max_n, 12)
    ok = all(
        _gf_agrees(group.gf(n), group.moments(n))
        for n in range(0, gf_to + 1)
        for group in _GROUPS
    )
    yield "moments.generating_function", ok, f"derivative route agrees for n<={gf_to}"
    rows = enumerate(signed_rows(300))
    ok = all(_gf_agrees(row, signed_moments(n)) for n, row in rows if n <= 120 or n == 300)
    yield "moments.signed_recurrence", ok, "recurrence rows give the signed moments for n<=120 and 300"
    ok = all(
        abs(r_sum(n)) <= r_abs_sum(n) <= Fraction(2) * (1 - Fraction(1, 2**n)) / (n + 2)
        for n in range(0, 31)
    )
    yield "moments.r_sum_bound", ok, "correction coefficients within the stated bound"
    ok = all(lhs == rhs for lhs, rhs in map(sury_identity_check, range(0, 51)))
    yield "moments.alternating_identity", ok, "both sides equal for n<=50"
    mean_u = float(unsigned_mean(1000))
    mean_s = float(signed_mean(1000))
    ok = abs(mean_u - (log(1000) + EULER_GAMMA)) <= 0.05
    yield "moments.unsigned_asymptotic", ok, "n=1000 mean within 0.05 of log(n)+gamma"
    ok = abs(mean_s - (log(1000) / 2 + EULER_GAMMA / 2 + log(2))) <= 0.05
    yield "moments.signed_asymptotic", ok, "n=1000 mean within 0.05 of log(n)/2+gamma/2+log(2)"


SUITES: dict[str, tuple[Callable[[int], Checks], int]] = {
    "table1": (table1, 11),
    "formulas": (formulas, 7),
    "lemmas": (lemmas, 4),
    "bounds": (bounds, 5),
    "moments": (moments, 6),
}
